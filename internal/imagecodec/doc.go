// Package imagecodec provides the image pipeline DIMD needs: a real (toy)
// lossy JPEG-style codec — 8×8 DCT, quantization, zigzag, run-length and
// varint entropy coding — plus the crop/flip/normalize augmentation the
// paper uses ("the input image is a 224×224 pixel random crop from a scaled
// image or its horizontal flip, normalized by the per-color mean and
// standard deviation"). Images are stored already at their training scale,
// so nothing here resizes.
//
// The paper stores resized, compressed images in memory and decompresses
// them on the fly with "an in-memory JPEG decompresser"; this codec plays
// that role so the DIMD code path (pack → load → shuffle → random batch →
// decode → augment → tensor) moves and decodes real bytes.
//
// There is one decoder, a block loop parameterised by a pixel window
// (decodeWindow). Decode runs it over the whole frame; the training input
// path, CropDecoder.DecodeApply, runs it over the crop the augmenter drew, so
// every block is entropy-walked and validated but only the blocks under the
// crop are dequantised, inverse-transformed, colour-converted and normalised
// — straight into the batch tensor, with the bits a crop of Decode's frame
// would have given.
package imagecodec
