package dimd

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/tensor"
)

func buildFileStore(t *testing.T, n int) *FileStore {
	t.Helper()
	fs, err := WriteFileStore(t.TempDir(), n, func(i int) (int, []byte) {
		return i % 5, []byte(fmt.Sprintf("payload-%03d", i))
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFileStoreWriteAndRead(t *testing.T) {
	fs := buildFileStore(t, 20)
	if fs.Len() != 20 {
		t.Fatalf("Len = %d", fs.Len())
	}
	// One file per image and nothing else: the labels live in the store.
	if entries, err := os.ReadDir(fs.dir); err != nil || len(entries) != 20 {
		t.Fatalf("store directory holds %d entries (%v), want 20 image files", len(entries), err)
	}
	rng := tensor.NewRNG(1)
	batch, err := fs.RandomBatch(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		if !bytes.HasPrefix(r.Data, []byte("payload-")) {
			t.Fatalf("bad payload %q", r.Data)
		}
		if r.Label < 0 || r.Label > 4 {
			t.Fatalf("bad label %d", r.Label)
		}
	}
}

func TestFileStoreLabelConsistency(t *testing.T) {
	fs := buildFileStore(t, 30)
	rng := tensor.NewRNG(3)
	batch, err := fs.RandomBatch(rng, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		var idx int
		if _, err := fmt.Sscanf(string(r.Data), "payload-%03d", &idx); err != nil {
			t.Fatal(err)
		}
		if r.Label != int32(idx%5) {
			t.Fatalf("record %d has label %d", idx, r.Label)
		}
	}
}
