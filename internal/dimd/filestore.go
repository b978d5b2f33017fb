package dimd

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tensor"
)

// FileStore is the baseline data path DIMD replaces: every image is a
// separate file on (network-attached) storage and each mini-batch issues
// random small reads — the access pattern whose poor throughput motivated
// Section 4.1 ("the Torch donkeys were unable to load the next samples of
// the mini-batch before the GPUs finished"). It serves the same Record API
// as Store so the trainer can run either path; the cluster model prices the
// resulting stall (Params.IOStallPerImage).
type FileStore struct {
	dir    string
	names  []string
	labels []int32
}

// WriteFileStore materializes n encoded images as individual files under
// dir (created if needed) — the "directory of JPEGs" layout of the
// open-source Torch ImageNet loader — and returns the store that reads them
// back; the labels stay in memory with it.
func WriteFileStore(dir string, n int, get func(i int) (label int, data []byte)) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dimd: creating file store: %w", err)
	}
	fs := &FileStore{dir: dir}
	for i := 0; i < n; i++ {
		label, data := get(i)
		name := fmt.Sprintf("img-%07d.tj", i)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return nil, fmt.Errorf("dimd: writing %s: %w", name, err)
		}
		fs.names = append(fs.names, name)
		fs.labels = append(fs.labels, int32(label))
	}
	return fs, nil
}

// Len returns the number of images.
func (f *FileStore) Len() int { return len(f.names) }

// RandomBatch reads n random image files from disk — one open/read/close
// per image, the random-small-read pattern the paper measured as the
// scaling bottleneck.
func (f *FileStore) RandomBatch(rng *tensor.RNG, n int) ([]Record, error) {
	if len(f.names) == 0 {
		return nil, fmt.Errorf("dimd: RandomBatch on empty file store")
	}
	out := make([]Record, n)
	for i := range out {
		j := rng.Intn(len(f.names))
		data, err := os.ReadFile(filepath.Join(f.dir, f.names[j]))
		if err != nil {
			return nil, fmt.Errorf("dimd: reading %s: %w", f.names[j], err)
		}
		out[i] = Record{Label: f.labels[j], Data: data}
	}
	return out, nil
}
