package tensor

import (
	"fmt"

	"repro/internal/kernels"
)

// MatMul computes C = A × B for 2-D tensors, allocating C. A is (m×k),
// B is (k×n), C is (m×n).
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.NumDims() != 2 || b.NumDims() != 2 {
		return nil, fmt.Errorf("tensor: MatMul wants 2-D operands, got %v × %v", a.Shape(), b.Shape())
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dims differ: %v × %v", a.Shape(), b.Shape())
	}
	c := New(m, n)
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, c.Data)
	return c, nil
}

// minFlopsPerTile is the smallest worthwhile unit of GEMM work, in
// multiply-adds: a tile has to outlast, several times over, the tens of
// microseconds a parked pool worker takes to wake and be joined. Measured
// with the AVX2 kernels (~15 G multiply-adds/s) at two workers: the 0.6–1.2 M
// products training steps are made of ran 1.3–1.65× slower split in two
// than on the caller alone, 3.6 M the same either way, 16.7 M 1.56× faster.
const minFlopsPerTile = 1 << 21

// minTileCols keeps column tiles at least as wide as the axpy kernel's
// widest register block (64 columns, eight vectors).
const minTileCols = 64

// tileRowQuantum is the dot kernel's tile height: row blocks are whole
// multiples of it, so splitting rows across workers never turns one 4-row
// kernel call (one in-register transpose of B per four C rows) into several
// single-row ones.
const tileRowQuantum = 4

// Gemm computes C = alpha*op(A)*op(B) + beta*C over flat row-major buffers,
// where op is identity or transpose per transA/transB. m, n, k are the
// dimensions of op(A) (m×k) and op(B) (k×n); storage is row-major with A
// stored m×k (or k×m when transA) and B stored k×n (or n×k when transB).
//
// Large problems are tiled over a 2-D (row-block × column-block) grid and
// dispatched onto the shared kernels pool — column tiling is what keeps all
// workers busy on the conv-lowered GEMMs, whose C is short (outC rows) but
// very wide (outH*outW columns). The k dimension is never split and each C
// element is produced by exactly one tile, so the per-element operation
// order — and therefore every bit of the result — is identical to the
// serial kernel regardless of worker count or tile shape.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		// Pure beta pass; each range is written by exactly one task.
		kernels.RunRange(m*n, minFlopsPerTile, func(lo, hi int) {
			scaleRange(c[lo:hi], beta)
		})
		return
	}

	flops := m * n * k
	tiles := kernels.Workers()
	if lim := flops/minFlopsPerTile + 1; tiles > lim {
		tiles = lim
	}
	if tiles <= 1 {
		gemmTile(transA, transB, 0, m, 0, n, m, n, k, alpha, a, b, beta, c)
		return
	}
	// Prefer splitting rows (tiles stream through B once each); go 2-D when
	// there are too few rows to occupy the pool — the conv shape.
	rowBlocks := tiles
	if lim := (m + tileRowQuantum - 1) / tileRowQuantum; rowBlocks > lim {
		rowBlocks = lim
	}
	colBlocks := (tiles + rowBlocks - 1) / rowBlocks
	if lim := n / minTileCols; colBlocks > lim {
		colBlocks = lim
	}
	if colBlocks < 1 {
		colBlocks = 1
	}
	rowsPer := (m + rowBlocks - 1) / rowBlocks
	rowsPer = (rowsPer + tileRowQuantum - 1) / tileRowQuantum * tileRowQuantum
	colsPer := (n + colBlocks - 1) / colBlocks
	var g *gemmGrid
	select {
	case g = <-gemmGrids:
	default:
		g = new(gemmGrid)
		g.task = g.tile
	}
	*g = gemmGrid{transA, transB, m, n, k, colBlocks, rowsPer, colsPer, alpha, beta, a, b, c, g.task}
	kernels.Run(rowBlocks*colBlocks, g.task)
	g.a, g.b, g.c = nil, nil, nil
	select {
	case gemmGrids <- g:
	default:
	}
}

// gemmGrid is one parallel Gemm's arguments, which its tile task reads: the
// task is bound once, when the grid is made, so a dispatch builds no
// closure. Grids recycle through gemmGrids, one per Gemm that can be inside
// kernels.Run at once; one released into a full list is dropped.
type gemmGrid struct {
	transA, transB                       bool
	m, n, k, colBlocks, rowsPer, colsPer int
	alpha, beta                          float32
	a, b, c                              []float32
	task                                 func(t int)
}

var gemmGrids = make(chan *gemmGrid, 64)

// tile computes tile t: row block t/colBlocks, column block t%colBlocks,
// both clipped to C.
func (g *gemmGrid) tile(t int) {
	rlo, clo := (t/g.colBlocks)*g.rowsPer, (t%g.colBlocks)*g.colsPer
	rhi, chi := min(rlo+g.rowsPer, g.m), min(clo+g.colsPer, g.n)
	if rlo < rhi && clo < chi {
		gemmTile(g.transA, g.transB, rlo, rhi, clo, chi, g.m, g.n, g.k, g.alpha, g.a, g.b, g.beta, g.c)
	}
}

// scaleRange applies the beta prologue to a flat range of C.
func scaleRange(c []float32, beta float32) {
	if beta == 0 {
		zeroFill(c)
	} else if beta != 1 {
		for i := range c {
			c[i] *= beta
		}
	}
}

// gemmTilePortable computes the C tile rows [rlo,rhi) × cols [clo,chi) of
// C = alpha*op(A)*op(B) + beta*C in pure Go: the kernel of every build
// without SIMD kernels and the reference the SIMD kernels are held to.
// fullM/fullN are the complete dimensions of op(A)'s rows and op(B)'s
// columns — the storage strides. The tile applies its own beta prologue:
// tiles cover C disjointly, so the scale-then-accumulate order per element
// matches the serial kernel exactly.
func gemmTilePortable(transA, transB bool, rlo, rhi, clo, chi, fullM, fullN, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	n := fullN
	for i := rlo; i < rhi; i++ {
		scaleRange(c[i*n+clo:i*n+chi], beta)
	}
	width := chi - clo
	switch {
	case !transA && !transB:
		// ikj loop with hoisted scalar: contiguous runs over B and C rows.
		for i := rlo; i < rhi; i++ {
			ci := c[i*n+clo : i*n+chi]
			ai := a[i*k : i*k+k]
			for p, av := range ai {
				s := alpha * av
				if s == 0 {
					continue
				}
				bp := b[p*n+clo : p*n+chi]
				for j, bv := range bp {
					ci[j] += s * bv
				}
			}
		}
	case transA && !transB:
		// A stored k×fullM: op(A)[i,p] = a[p*fullM+i].
		for i := rlo; i < rhi; i++ {
			ci := c[i*n+clo : i*n+chi]
			for p := 0; p < k; p++ {
				s := alpha * a[p*fullM+i]
				if s == 0 {
					continue
				}
				bp := b[p*n+clo : p*n+chi]
				for j, bv := range bp {
					ci[j] += s * bv
				}
			}
		}
	case !transA && transB:
		// B stored n×k: op(B)[p,j] = b[j*k+p]; row-by-row dot products.
		for i := rlo; i < rhi; i++ {
			ai := a[i*k : i*k+k]
			ci := c[i*n+clo : i*n+chi]
			for j := 0; j < width; j++ {
				bj := b[(clo+j)*k : (clo+j)*k+k]
				var s float32
				for p, av := range ai {
					s += av * bj[p]
				}
				ci[j] += alpha * s
			}
		}
	default: // transA && transB
		for i := rlo; i < rhi; i++ {
			ci := c[i*n+clo : i*n+chi]
			for j := 0; j < width; j++ {
				bj := b[(clo+j)*k : (clo+j)*k+k]
				var s float32
				for p := 0; p < k; p++ {
					s += a[p*fullM+i] * bj[p]
				}
				ci[j] += alpha * s
			}
		}
	}
}
