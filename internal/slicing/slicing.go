// Package slicing extracts the feature and label sub-tensors for a sampled
// mini-batch and stages them in pinned host buffers ready for transfer.
//
// This is the second half of batch preparation (paper §3.2, §4.2). The
// kernels here embody the baseline's conventional optimizations — row-major
// feature storage for cache-efficient row copies, half-precision host
// features to halve bandwidth — plus SALIENT's changes: a deliberately
// serial slice kernel per worker (better cache locality and no inter-thread
// contention than PyTorch's internally parallel slicing), writing directly
// into reusable pinned staging buffers so the main process never copies.
package slicing

import (
	"fmt"

	"salient/internal/half"
	"salient/internal/tensor"
)

// Pinned is a pinned host staging buffer for one prepared mini-batch: the
// sliced feature rows at the source's storage precision (a half.Rows block,
// whose methods pick the live array) and the seed labels.
//
// In CUDA terms this is page-locked memory that the DMA engine can read
// directly; here it is the unit of reuse in the buffer pool, and the device
// simulation charges DMA-rate transfer for it (versus the slower pageable
// path for non-pinned sources).
type Pinned struct {
	half.Rows
	Labels []int32 // seed labels
}

// NewPinned allocates a staging buffer for up to maxRows rows of featDim
// features and maxBatch labels. The fp16 array is pre-sized (the common
// case); other precisions grow on first use and are recycled thereafter.
func NewPinned(maxRows, featDim, maxBatch int) *Pinned {
	return &Pinned{
		Rows:   half.Rows{Dim: featDim, H: make([]half.Float16, 0, maxRows*featDim)},
		Labels: make([]int32, maxBatch),
	}
}

// Ensure shapes p for rows feature rows of dim at prec and batch seed
// labels, recycling the arrays earlier batches grew. Gather kernels (here
// and in internal/store) call it before writing rows.
//
//salient:noalloc
func (p *Pinned) Ensure(rows, dim, batch int, prec half.Precision) {
	p.Rows.Ensure(rows, dim, prec)
	if cap(p.Labels) < batch {
		p.Labels = make([]int32, batch)
	}
	p.Labels = p.Labels[:batch]
}

// Bytes returns the payload size of the staged batch: the rows at their
// staged precision plus the labels.
func (p *Pinned) Bytes() int64 {
	return p.Rows.Bytes() + int64(len(p.Labels))*4
}

// Source provides per-node feature rows and labels to the gather kernels.
// It is the seam between the kernels and the FeatureStore layer
// (internal/store): the kernels own the iteration over a batch's node IDs
// and the destination layout, the source says where each row physically
// lives — one flat matrix or one block per partition shard — and at which
// precision (every block holds the same one).
type Source struct {
	// Blocks hold the rows. A flat matrix is the single block Blocks[0],
	// where node id is row id.
	Blocks []*half.Rows
	// Part and Local map node id to its block and to its row within that
	// block. Both are nil for a flat matrix, or both are set.
	Part, Local []int32
	// Labels holds one label per node id.
	Labels []int32
}

// Dim returns the feature dimensionality.
func (s *Source) Dim() int { return s.Blocks[0].Dim }

// Precision returns the storage precision of the rows.
func (s *Source) Precision() half.Precision { return s.Blocks[0].Prec }

// locate returns the block holding node id's row and the row's index in it.
func (s *Source) locate(id int32) (*half.Rows, int) {
	if s.Part == nil {
		return s.Blocks[0], int(id)
	}
	return s.Blocks[s.Part[id]], int(s.Local[id])
}

// Slice gathers the feature rows for nodeIDs out of src into dst — staged at
// the source's storage precision — and the labels for the first batch
// entries of nodeIDs (the seed prefix). This is the SALIENT serial kernel:
// one worker slices one whole batch, contiguously, with no synchronization.
//
//salient:noalloc
func Slice(dst *Pinned, src *Source, nodeIDs []int32, batch int) error {
	if batch > len(nodeIDs) {
		return fmt.Errorf("slicing: batch %d > nodes %d", batch, len(nodeIDs))
	}
	dst.Ensure(len(nodeIDs), src.Dim(), batch, src.Precision())
	sliceRows(dst, src, nodeIDs, 0, len(nodeIDs))
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Labels[nodeIDs[i]]
	}
	return nil
}

// sliceRows copies rows [lo,hi) of nodeIDs into their staging positions —
// the shared body of the serial and striped kernels.
//
//salient:noalloc
func sliceRows(dst *Pinned, src *Source, nodeIDs []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		b, r := src.locate(nodeIDs[i])
		dst.CopyRow(i, b, r)
	}
}

// SliceStriped is the PyTorch-style parallel slice kernel: the row range is
// split into nWorkers static stripes processed by the provided runner (in
// production PyTorch, OpenMP threads). It exists for the Table 2 comparison;
// SALIENT itself uses Slice per batch-preparation worker.
//
// run is called once with the stripe closures and must execute them
// (possibly concurrently) before returning.
func SliceStriped(dst *Pinned, src *Source, nodeIDs []int32, batch, nWorkers int, run func(stripes []func())) error {
	if batch > len(nodeIDs) {
		return fmt.Errorf("slicing: batch %d > nodes %d", batch, len(nodeIDs))
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	dst.Ensure(len(nodeIDs), src.Dim(), batch, src.Precision())
	n := len(nodeIDs)
	stripes := make([]func(), 0, nWorkers)
	for w := 0; w < nWorkers; w++ {
		lo := n * w / nWorkers
		hi := n * (w + 1) / nWorkers
		if lo == hi {
			continue
		}
		stripes = append(stripes, func() {
			sliceRows(dst, src, nodeIDs, lo, hi)
		})
	}
	run(stripes)
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Labels[nodeIDs[i]]
	}
	return nil
}

// DecodeFeatures converts a staged feature block into the float32 tensor
// used by compute (the GPU-side widening in the paper: transfers stay at
// storage width, kernels run single precision) through half.Rows.Widen —
// the widening the fused kernels use too, so staged-then-decoded values are
// bit-identical to fused ones.
//
//salient:noalloc
func DecodeFeatures(dst *tensor.Dense, p *Pinned) {
	if dst.Rows != p.N || dst.Cols != p.Dim {
		panic(fmt.Sprintf("slicing: decode shape %dx%d vs staged %dx%d", dst.Rows, dst.Cols, p.N, p.Dim)) //lint:allow panicdiscipline shape contract: decode destinations are sized by the same batch geometry
	}
	p.Widen(dst.Data, 0, p.N)
}

// DecodeInto widens p into x, recycling x's backing array across batches
// (tensor.Reshape) so steady-state decoding allocates nothing: pass the
// previous batch's tensor back in, nil on first use. This is the one decode
// entry point the pipeline's consumers (training, inference, serving)
// share.
//
//salient:noalloc
func DecodeInto(x *tensor.Dense, p *Pinned) *tensor.Dense {
	x = tensor.Reshape(x, p.N, p.Dim)
	DecodeFeatures(x, p)
	return x
}

// Pool is a fixed-size recycling pool of pinned staging buffers. SALIENT
// bounds in-flight batches by the number of slots; a worker takes a free
// slot, fills it, hands it to the training loop, and the loop returns it
// after the (simulated) transfer completes.
type Pool struct {
	free chan *Pinned
}

// NewPool creates a pool with n pre-allocated buffers.
func NewPool(n, maxRows, featDim, maxBatch int) *Pool {
	p := &Pool{free: make(chan *Pinned, n)}
	for i := 0; i < n; i++ {
		p.free <- NewPinned(maxRows, featDim, maxBatch)
	}
	return p
}

// Get blocks until a free buffer is available.
func (p *Pool) Get() *Pinned { return <-p.free }

// TryGet returns a buffer if one is free.
func (p *Pool) TryGet() (*Pinned, bool) {
	select {
	case b := <-p.free:
		return b, true
	default:
		return nil, false
	}
}

// Put returns a buffer to the pool. Putting more buffers than the pool size
// panics, which catches double-free bugs early.
func (p *Pool) Put(b *Pinned) {
	select {
	case p.free <- b:
	default:
		panic("slicing: pool overflow (double Put?)") //lint:allow panicdiscipline corruption guard: pool overflow means a double Put broke ownership
	}
}
