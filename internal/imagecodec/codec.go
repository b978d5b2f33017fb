package imagecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// The codec follows the JPEG pipeline closely enough to have the same cost
// profile the paper's in-memory JPEG decompressor pays per image:
// RGB → YCbCr, per-channel 8×8 blocks, forward DCT, quantization with
// quality-scaled tables, zigzag scan, run-length coding of zero runs and
// varint entropy coding of levels. It is not bitstream-compatible with JPEG
// (no Huffman stage) but achieves comparable compression ratios on natural
// images and round-trips with comparable distortion.

// magic marks encoded blobs.
const magic = 0x544A5047 // "TJPG"

// luminance quantization table (JPEG Annex K), zigzag-ordered at use time.
var quantLuma = [64]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// chrominance quantization table (JPEG Annex K).
var quantChroma = [64]int32{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// zigzag maps scan order -> block offset.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// scaledTables returns the quality-scaled quantization tables. quality in
// [1,100], JPEG's scaling convention.
func scaledTables(quality int) (luma, chroma [64]int32) {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int32
	if quality < 50 {
		scale = int32(5000 / quality)
	} else {
		scale = int32(200 - 2*quality)
	}
	for i := 0; i < 64; i++ {
		l := (quantLuma[i]*scale + 50) / 100
		c := (quantChroma[i]*scale + 50) / 100
		if l < 1 {
			l = 1
		}
		if c < 1 {
			c = 1
		}
		luma[i], chroma[i] = l, c
	}
	return luma, chroma
}

// Encode compresses im at the given quality (1..100). The output embeds the
// dimensions and quality so Decode is self-contained.
func Encode(im *Image, quality int) []byte {
	luma, chroma := scaledTables(quality)
	// Header: magic, w, h, quality.
	out := make([]byte, 0, len(im.Pix)/4+16)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(im.W))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(im.H))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(quality))
	out = append(out, hdr[:]...)

	bw := (im.W + 7) / 8
	bh := (im.H + 7) / 8
	var block [64]float64
	var coef [64]int32
	// Channel order: Y, Cb, Cr; blocks raster order within channel.
	for ch := 0; ch < 3; ch++ {
		table := &luma
		if ch > 0 {
			table = &chroma
		}
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				loadBlock(im, ch, bx, by, &block)
				fdct(&block)
				for i := 0; i < 64; i++ {
					q := table[i]
					v := block[zigzag[i]]
					coef[i] = int32(math.Round(v / float64(q)))
				}
				out = appendRLE(out, &coef)
			}
		}
	}
	return out
}

// maxDim bounds each image side a header may declare.
const maxDim = 1 << 16

// parseHeader validates a blob's 16-byte header. Beyond the field checks it
// rejects dimensions the payload cannot back: every 8×8 block of every
// channel costs at least its end-marker byte, so a header cannot make the
// decoder size buffers for more pixels than 64/3 per payload byte.
func parseHeader(data []byte) (w, h, quality int, err error) {
	if len(data) < 16 {
		return 0, 0, 0, errors.New("imagecodec: blob too short")
	}
	if binary.LittleEndian.Uint32(data[0:]) != magic {
		return 0, 0, 0, errors.New("imagecodec: bad magic")
	}
	w = int(binary.LittleEndian.Uint32(data[4:]))
	h = int(binary.LittleEndian.Uint32(data[8:]))
	quality = int(binary.LittleEndian.Uint32(data[12:]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return 0, 0, 0, fmt.Errorf("imagecodec: bad dimensions %dx%d", w, h)
	}
	if blocks := 3 * ((w + 7) / 8) * ((h + 7) / 8); len(data)-16 < blocks {
		return 0, 0, 0, fmt.Errorf("imagecodec: %dx%d needs %d blocks, payload is %d bytes", w, h, blocks, len(data)-16)
	}
	return w, h, quality, nil
}

// window is the pixel rectangle [x0,x1)×[y0,y1) of a frame that a decode
// materialises.
type window struct{ x0, y0, x1, y1 int }

// decodeWindow is the codec's one block loop. It entropy-walks every block of
// a w×h blob in stream order — a corrupt block anywhere fails the decode,
// whatever the window — and dequantises and inverse-transforms only the
// blocks that intersect win, computing only their samples inside it. planes
// receives the window's Y−128, Cb and Cr samples, one plane after another,
// each row-major at the window's width. Decode passes the whole frame, whose
// right and bottom edges clip the last blocks of a frame whose sides are not
// multiples of 8.
func decodeWindow(data []byte, w, h, quality int, win window, planes []float64) error {
	luma, chroma := scaledTables(quality)
	bw, bh := (w+7)/8, (h+7)/8
	ww, wh := win.x1-win.x0, win.y1-win.y0
	pos := 16
	var block [64]float64
	for ch := 0; ch < 3; ch++ {
		table := &luma
		if ch > 0 {
			table = &chroma
		}
		plane := planes[ch*ww*wh : (ch+1)*ww*wh]
		for by := 0; by < bh; by++ {
			y0, y1 := max(by*8, win.y0), min(by*8+8, win.y1)
			for bx := 0; bx < bw; bx++ {
				x0, x1 := max(bx*8, win.x0), min(bx*8+8, win.x1)
				var err error
				if y0 >= y1 || x0 >= x1 {
					if pos, _, err = readRLE(data, pos, nil, nil); err != nil {
						return err
					}
					continue
				}
				block = [64]float64{}
				var rows uint
				if pos, rows, err = readRLE(data, pos, table, &block); err != nil {
					return err
				}
				idct(&block, rows, x0-bx*8, x1-bx*8, y0-by*8, y1-by*8, plane[(y0-win.y0)*ww+x0-win.x0:], ww)
			}
		}
	}
	return nil
}

// rgb converts one centred YCbCr sample (Y−128, Cb, Cr) to 8-bit RGB.
func rgb(y, cb, cr float64) (r, g, b uint8) {
	y += 128
	return clampU8(y + 1.402*cr), clampU8(y - 0.344136*cb - 0.714136*cr), clampU8(y + 1.772*cb)
}

// Decode decompresses a blob produced by Encode.
func Decode(data []byte) (*Image, error) {
	w, h, quality, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	n := w * h
	planes := make([]float64, 3*n)
	if err := decodeWindow(data, w, h, quality, window{0, 0, w, h}, planes); err != nil {
		return nil, err
	}
	im := NewImage(w, h)
	for i := 0; i < n; i++ {
		im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = rgb(planes[i], planes[n+i], planes[2*n+i])
	}
	return im, nil
}

// CropDecoder decodes blobs straight to augmented tensor slabs. It owns the
// window-sized scratch planes, so a sampler that keeps one decodes without
// allocating; the zero value is ready and serves one goroutine at a time.
type CropDecoder struct {
	planes []float64
}

// DecodeApply applies a to the image in data, writing the 3×Crop×Crop CHW
// slab into dst: it draws the crop origin x, the origin y and the flip from
// rng, in that order, and gives the float32 bits of cropping, mirroring and
// normalising Decode's frame — without the frame in between: only the blocks
// under the crop are inverse-transformed, colour-converted and normalised.
// A frame smaller than the crop, or a dst that is not one slab, fails before
// any draw.
func (d *CropDecoder) DecodeApply(data []byte, a Augment, rng *tensor.RNG, dst []float32) error {
	w, h, quality, err := parseHeader(data)
	if err != nil {
		return err
	}
	if err := a.check(w, h, dst); err != nil {
		return err
	}
	cx, cy, flip := a.draw(w, h, rng)
	return d.crop(data, w, h, quality, a, cx, cy, flip, dst)
}

// crop is DecodeApply after the header and the draws: the a.Crop-sized
// window at (cx, cy) of the w×h blob, mirrored when flip, into dst.
func (d *CropDecoder) crop(data []byte, w, h, quality int, a Augment, cx, cy int, flip bool, dst []float32) error {
	plane := a.Crop * a.Crop
	if cap(d.planes) < 3*plane {
		d.planes = make([]float64, 3*plane)
	}
	ycc := d.planes[:3*plane]
	if err := decodeWindow(data, w, h, quality, window{cx, cy, cx + a.Crop, cy + a.Crop}, ycc); err != nil {
		return err
	}
	for y := 0; y < a.Crop; y++ {
		for x := 0; x < a.Crop; x++ {
			s := y*a.Crop + x
			if flip {
				s = y*a.Crop + a.Crop - 1 - x
			}
			r, g, b := rgb(ycc[s], ycc[plane+s], ycc[2*plane+s])
			o := y*a.Crop + x
			dst[o], dst[plane+o], dst[2*plane+o] = a.norm(0, r), a.norm(1, g), a.norm(2, b)
		}
	}
	return nil
}

// loadBlock extracts one 8×8 block of channel ch in YCbCr space, centered
// at 0 (Y-128, Cb, Cr). Edge blocks replicate the border pixel.
func loadBlock(im *Image, ch, bx, by int, dst *[64]float64) {
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= im.H {
			sy = im.H - 1
		}
		for x := 0; x < 8; x++ {
			sx := bx*8 + x
			if sx >= im.W {
				sx = im.W - 1
			}
			i := 3 * (sy*im.W + sx)
			r := float64(im.Pix[i])
			g := float64(im.Pix[i+1])
			b := float64(im.Pix[i+2])
			var v float64
			switch ch {
			case 0:
				v = 0.299*r + 0.587*g + 0.114*b - 128
			case 1:
				v = -0.168736*r - 0.331264*g + 0.5*b
			default:
				v = 0.5*r - 0.418688*g - 0.081312*b
			}
			dst[y*8+x] = v
		}
	}
}

// dctCos[u][x] = cos((2x+1)uπ/16) * c(u)/2 with c(0)=1/√2, c(u>0)=1.
var dctCos [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		c := 0.5
		if u == 0 {
			c = 0.5 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			dctCos[u][x] = c * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
		}
	}
}

// fdct applies the 8×8 forward DCT in place (separable, rows then columns).
func fdct(b *[64]float64) {
	var tmp [64]float64
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += b[y*8+x] * dctCos[u][x]
			}
			tmp[y*8+u] = s
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * dctCos[v][y]
			}
			b[v*8+u] = s
		}
	}
}

// idct inverse-transforms block b and stores its samples [x0,x1)×[y0,y1)
// (block-local) to dst, whose rows are stride apart and whose first element
// is sample (x0, y0). rows has bit v set for every coefficient row v that
// holds a nonzero; the other rows, and the zero coefficients of those, are
// skipped.
//
// Neither restriction moves a bit of any stored sample against the dense
// transform (every sample an ascending sum over u, then over v, from +0).
// Each sample is its own sum, so computing fewer of them changes none of the
// others, and the loops below only interchange which sample advances next,
// never the order of terms within one. A skipped term is ±0 — a dequantised
// zero is +0, its products with a cosine ±0, a row of such sums +0 — and
// adding ±0 never changes an accumulator that started at +0: a nonzero
// partial sum absorbs it, and a zero one is +0 (only (−0)+(−0) gives −0)
// and stays +0.
func idct(b *[64]float64, rows uint, x0, x1, y0, y1 int, dst []float64, stride int) {
	var tmp [64]float64
	var live [8]int
	n := 0
	for v := 0; v < 8; v++ {
		if rows&(1<<v) == 0 {
			continue
		}
		live[n] = v
		n++
		t := tmp[v*8+x0 : v*8+x1]
		for u := 0; u < 8; u++ {
			c := b[v*8+u]
			if c == 0 {
				continue
			}
			cos := dctCos[u][x0:x1]
			for i := range t {
				t[i] += c * cos[i]
			}
		}
	}
	for y := y0; y < y1; y++ {
		out := dst[(y-y0)*stride:][:x1-x0]
		clear(out)
		for _, v := range live[:n] {
			c := dctCos[v][y]
			t := tmp[v*8+x0 : v*8+x1]
			for i := range out {
				out[i] += t[i] * c
			}
		}
	}
}

// appendRLE encodes the 64 zigzag coefficients as (zeroRun, level) pairs:
// zero run as a single byte, level as a zigzag varint. A run byte of 255
// terminates the block early (all remaining coefficients zero).
func appendRLE(out []byte, coef *[64]int32) []byte {
	i := 0
	for i < 64 {
		run := 0
		for i < 64 && coef[i] == 0 {
			run++
			i++
		}
		if i == 64 {
			out = append(out, 255)
			return out
		}
		for run > 254 {
			// Rare: long interior zero run split into chunks with level 0.
			out = append(out, 254)
			out = appendZigzagVarint(out, 0)
			run -= 254
		}
		out = append(out, byte(run))
		out = appendZigzagVarint(out, int64(coef[i]))
		i++
	}
	out = append(out, 255) // explicit end marker keeps the reader simple
	return out
}

// readRLE decodes one block starting at pos and returns the next position.
// With a non-nil block it dequantises every coded coefficient by table into
// its zigzag position of block — which the caller hands over zeroed — and
// returns the mask of block rows it wrote a nonzero to. A nil block walks and
// validates the stream identically and stores nothing.
func readRLE(data []byte, pos int, table *[64]int32, block *[64]float64) (next int, rows uint, err error) {
	i := 0
	for {
		if pos >= len(data) {
			return 0, 0, errors.New("imagecodec: truncated block")
		}
		run := int(data[pos])
		pos++
		if run == 255 {
			return pos, rows, nil
		}
		i += run
		v, n := readZigzagVarint(data[pos:])
		if n <= 0 {
			return 0, 0, errors.New("imagecodec: bad varint")
		}
		pos += n
		if i > 63 {
			return 0, 0, errors.New("imagecodec: coefficient index overflow")
		}
		// A (254, 0) pair is a run continuation with no coefficient.
		if run == 254 && v == 0 {
			continue
		}
		if block != nil {
			if q := int32(v) * table[i]; q != 0 {
				block[zigzag[i]] = float64(q)
				rows |= 1 << (zigzag[i] >> 3)
			}
		}
		i++
		if i == 64 {
			// Expect the end marker next.
			if pos >= len(data) || data[pos] != 255 {
				return 0, 0, errors.New("imagecodec: missing end marker")
			}
			return pos + 1, rows, nil
		}
	}
}

func appendZigzagVarint(out []byte, v int64) []byte {
	u := uint64(v<<1) ^ uint64(v>>63)
	for u >= 0x80 {
		out = append(out, byte(u)|0x80)
		u >>= 7
	}
	return append(out, byte(u))
}

func readZigzagVarint(b []byte) (int64, int) {
	var u uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		u |= uint64(b[i]&0x7f) << shift
		if b[i] < 0x80 {
			return int64(u>>1) ^ -int64(u&1), i + 1
		}
		shift += 7
		if shift > 63 {
			return 0, -1
		}
	}
	return 0, -1
}
