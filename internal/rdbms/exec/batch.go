package exec

import (
	"fmt"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// DefaultBatchSize is the executor's default rows-per-batch (the
// plan.Config batch_size knob overrides it per session).
const DefaultBatchSize = 1024

// NullBitmap tracks NULLs of one batch column, one bit per row (bit set =
// NULL). Kernels use AnyNull to skip per-row NULL checks on all-valid
// columns.
type NullBitmap []uint64

// Set marks row i NULL.
func (m NullBitmap) Set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is NULL.
func (m NullBitmap) Get(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// AnyNull reports whether any bit is set.
func (m NullBitmap) AnyNull() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

func bitmapWords(n int) int { return (n + 63) / 64 }

// RowBatch is a column-major batch of rows: Cols[j][i] is column j of row
// i, and Nulls[j] is column j's null bitmap. Batches returned by a
// BatchIterator are owned by that iterator and valid only until its next
// NextBatch or Close call; consumers that retain data must copy it.
type RowBatch struct {
	n     int
	Cols  [][]types.Datum
	Nulls []NullBitmap
	// Segs, when non-nil, carries the column segments backing this batch:
	// Segs[j] is the striped encoding of column j when the batch aliases a
	// frozen heap page, nil for plain columns. Only the batch scan sets it;
	// segment-aware operators (BatchMultiExtractIter.SegKernel) may read a
	// column's values straight from the segment instead of Cols[j].
	Segs []storage.ColumnSegment
	// Sel, when non-nil, is the batch's selection vector: the logical rows
	// are Cols[j][Sel[0]], Cols[j][Sel[1]], ... in that order, and Len()
	// reports len(Sel). Columns always keep their full physical length
	// (PhysLen rows) so filtered batches can alias immutable frozen-page
	// vectors without compaction. Operators reading columns must either
	// iterate through Sel (selIdx) or be materializing boundaries that
	// compact the batch to dense form.
	Sel []int32
}

// NewRowBatch returns an empty batch of the given width with capacity for
// capHint rows per column.
func NewRowBatch(width, capHint int) *RowBatch {
	b := &RowBatch{
		Cols:  make([][]types.Datum, width),
		Nulls: make([]NullBitmap, width),
	}
	for j := range b.Cols {
		b.Cols[j] = make([]types.Datum, 0, capHint)
		b.Nulls[j] = make(NullBitmap, bitmapWords(capHint))
	}
	return b
}

// Len returns the number of logical rows in the batch: the selection
// length when a selection vector is attached, the physical row count
// otherwise.
func (b *RowBatch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// PhysLen returns the physical row count of the batch's columns,
// independent of any selection vector. Kernels that run over every stored
// row (segment extraction, column materialization) size their outputs by
// it; Sel entries index into [0, PhysLen).
func (b *RowBatch) PhysLen() int { return b.n }

// selIdx maps logical row si to its physical index through sel; the
// identity when no selection vector is attached.
func selIdx(sel []int32, si int) int {
	if sel != nil {
		return int(sel[si])
	}
	return si
}

// Width returns the number of columns.
func (b *RowBatch) Width() int { return len(b.Cols) }

// Reset empties the batch, keeping column capacity.
func (b *RowBatch) Reset() {
	b.n = 0
	b.Segs = nil
	b.Sel = nil
	for j := range b.Cols {
		b.Cols[j] = b.Cols[j][:0]
		for w := range b.Nulls[j] {
			b.Nulls[j][w] = 0
		}
	}
}

// AppendRow transposes one row into the batch. The row width must match
// the batch width.
func (b *RowBatch) AppendRow(row storage.Row) {
	i := b.n
	for j, d := range row {
		b.Cols[j] = append(b.Cols[j], d)
		if d.IsNull() {
			b.growNulls(j, i+1)
			b.Nulls[j].Set(i)
		}
	}
	b.n++
}

// growNulls makes sure column j's bitmap covers n rows.
func (b *RowBatch) growNulls(j, n int) {
	want := bitmapWords(n)
	for len(b.Nulls[j]) < want {
		b.Nulls[j] = append(b.Nulls[j], 0)
	}
}

// SetCol installs a fully materialized column (len must equal the batch
// length for every installed column) and recomputes its null bitmap.
func (b *RowBatch) SetCol(j int, col []types.Datum) {
	b.Cols[j] = col
	b.growNulls(j, len(col))
	m := b.Nulls[j][:bitmapWords(len(col))]
	for w := range m {
		m[w] = 0
	}
	for i := range col {
		if col[i].IsNull() {
			m.Set(i)
		}
	}
	if len(col) > b.n {
		b.n = len(col)
	}
}

// SetLen declares the row count after columns were written directly.
func (b *RowBatch) SetLen(n int) { b.n = n }

// AliasCol makes column j share column srcIdx of src — data and null
// bitmap — without copying or rescanning. The alias is valid as long as
// src's current batch contents are.
func (b *RowBatch) AliasCol(j int, src *RowBatch, srcIdx int) {
	b.Cols[j] = src.Cols[srcIdx]
	b.Nulls[j] = src.Nulls[srcIdx]
	if n := len(b.Cols[j]); n > b.n {
		b.n = n
	}
}

// fillCol transposes column j of rows into the batch, growing column and
// bitmap capacity as needed.
func (b *RowBatch) fillCol(j int, rows []storage.Row) {
	n := len(rows)
	words := bitmapWords(n)
	col := b.Cols[j]
	if cap(col) < n {
		col = make([]types.Datum, n)
	}
	col = col[:n]
	m := b.Nulls[j]
	if cap(m) < words {
		m = make(NullBitmap, words)
	}
	m = m[:words]
	for w := range m {
		m[w] = 0
	}
	for i, r := range rows {
		col[i] = r[j]
		if col[i].IsNull() {
			m.Set(i)
		}
	}
	b.Cols[j], b.Nulls[j] = col, m
}

// Row copies row i into dst (reallocating when dst is too small) and
// returns it — the row-major view batch/row adapters and per-row fallback
// evaluation use. Columns a pruned scan left empty yield zero Datums; the
// planner guarantees no consumer reads them.
func (b *RowBatch) Row(i int, dst storage.Row) storage.Row {
	if cap(dst) < len(b.Cols) {
		dst = make(storage.Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j := range b.Cols {
		if col := b.Cols[j]; i < len(col) {
			dst[j] = col[i]
		} else {
			dst[j] = types.Datum{}
		}
	}
	return dst
}

// batchPool recycles RowBatch shells between operators; capacity sizing
// happens lazily in the operators themselves.
var batchPool = sync.Pool{New: func() any { return &RowBatch{} }}

// GetBatch fetches a pooled batch resized to the given width (column
// contents are reset, capacity retained where possible).
func GetBatch(width int) *RowBatch {
	b := batchPool.Get().(*RowBatch)
	for len(b.Cols) < width {
		b.Cols = append(b.Cols, nil)
		b.Nulls = append(b.Nulls, nil)
	}
	b.Cols = b.Cols[:width]
	b.Nulls = b.Nulls[:width]
	b.Reset()
	return b
}

// PutBatch returns a batch to the pool. The caller must not use it again.
func PutBatch(b *RowBatch) {
	if b != nil {
		batchPool.Put(b)
	}
}

// BatchIterator is the batch-at-a-time operator interface. NextBatch
// returns a non-empty batch, or (nil, nil) at end of stream; the batch is
// valid until the next NextBatch or Close call on the same iterator.
type BatchIterator interface {
	NextBatch() (*RowBatch, error)
	Close()
}

// ---------- Row/batch adapters ----------

// RowToBatch adapts a row iterator to the batch interface by buffering
// Size rows per batch — how Sort, joins, and other row-only operators feed
// a batch pipeline stage above them.
type RowToBatch struct {
	In   Iterator
	Size int

	batch *RowBatch
}

// NextBatch implements BatchIterator.
func (a *RowToBatch) NextBatch() (*RowBatch, error) {
	size := a.Size
	if size <= 0 {
		size = DefaultBatchSize
	}
	if a.batch == nil {
		a.batch = GetBatch(0)
	}
	b := a.batch
	b.Reset()
	for b.Len() < size {
		row, ok, err := a.In.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if b.Width() == 0 && len(row) > 0 {
			// First row fixes the width.
			*b = *NewRowBatch(len(row), size)
		}
		b.AppendRow(row)
	}
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

// Close implements BatchIterator.
func (a *RowToBatch) Close() {
	a.In.Close()
	if a.batch != nil {
		PutBatch(a.batch)
		a.batch = nil
	}
}

// SizeHint implements SizeHinter by delegating to the wrapped iterator.
func (a *RowToBatch) SizeHint() (int64, bool) {
	if sh, ok := a.In.(SizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// BatchToRow adapts a batch iterator back to the Volcano row interface at
// the boundary to row-only consumers (Sort, joins, Collect). Emitted rows
// are independent of the source batch: each batch's rows are carved out of
// one shared arena allocation, so retaining them (Collect, Sort) is safe
// and costs one allocation per batch rather than one per row.
type BatchToRow struct {
	In BatchIterator

	batch  *RowBatch
	pos    int
	arena  []types.Datum
	used   int
	hinted bool
	nohint bool
}

// Next implements Iterator.
func (a *BatchToRow) Next() (storage.Row, bool, error) {
	for a.batch == nil || a.pos >= a.batch.Len() {
		b, err := a.In.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		a.batch = b
		a.pos = 0
		need := b.Len() * b.Width()
		if !a.hinted && !a.nohint {
			// With an exact source cardinality, one arena covers the whole
			// result instead of one allocation per batch.
			if sh, ok := a.In.(BatchSizeHinter); ok {
				if n, exact := sh.SizeHint(); exact && n >= int64(b.Len()) && n <= collectCapHint {
					a.arena = make([]types.Datum, int(n)*b.Width())
					a.used = 0
					a.hinted = true
				}
			}
			if !a.hinted {
				a.nohint = true
			}
		}
		if len(a.arena)-a.used < need {
			a.arena = make([]types.Datum, need)
			a.used = 0
		}
	}
	w := a.batch.Width()
	row := storage.Row(a.arena[a.used : a.used+w : a.used+w])
	a.used += w
	i := selIdx(a.batch.Sel, a.pos)
	for j := 0; j < w; j++ {
		if col := a.batch.Cols[j]; i < len(col) {
			row[j] = col[i]
		} else {
			row[j] = types.Datum{} // column pruned away by the scan
		}
	}
	a.pos++
	return row, true, nil
}

// Close implements Iterator.
func (a *BatchToRow) Close() { a.In.Close() }

// SizeHint implements SizeHinter by delegating to the wrapped iterator.
func (a *BatchToRow) SizeHint() (int64, bool) {
	if sh, ok := a.In.(BatchSizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// BatchSizeHinter is SizeHinter for batch iterators.
type BatchSizeHinter interface {
	SizeHint() (int64, bool)
}

// ---------- Batch scan ----------

// BatchScanIter is the leaf of every batch pipeline: it reads a heap page
// range one page at a time (striped.go). Frozen pages become batches whose
// columns alias the page's immutable vectors; row-form pages are
// transposed into a scan-owned batch. A pushed-down filter runs in-scan as
// a SelFilter (selfilter.go) and publishes the surviving rows of either
// page kind through a selection vector.
type BatchScanIter struct {
	// NeedCols, when non-nil, lists the only column indices downstream
	// operators read (ascending). The scan materializes just those columns
	// (plus any its filter reads) into its batches; the rest stay empty.
	// Set before the first NextBatch.
	NeedCols []int

	chunk *storage.HeapChunkIter
	width int
	nrows int64 // row count of the scanned range, -1 for a partial range
	ctx   *EvalCtx
	heap  *storage.Heap

	// Page state: the page being read, the batch it is read into, and
	// which of its columns are materialized.
	page    storage.PageView
	cur     *RowBatch
	filled  []bool
	shell   *RowBatch     // frozen-page shell; aliases, never pooled/Reset
	own     *RowBatch     // pooled transpose buffer for row-form pages
	pageBuf []storage.Row // ReadPage row buffer (one full page)

	// In-scan selection filtering: the compiled filter, its per-scan
	// state, and the count of selection-carrying batches emitted (flushed
	// to the heap's stats on Close).
	sf         *SelFilter
	selState   *selScanState
	selBatches int64
}

// NewBatchScan returns a batch scan over all pages of v, filtered by sf
// (nil for none).
func NewBatchScan(v storage.ReadView, sf *SelFilter) *BatchScanIter {
	return NewBatchScanRange(v, sf, 0, v.NumPages())
}

// NewBatchScanRange returns a batch scan over pages [start, end) of v —
// one partition of a parallel pipeline. sf is the compiled pushed-down
// filter (nil for none); it is immutable and may be shared by every
// partition. Stat flushes on Close key on the view's owner heap, so
// snapshot scans account like live scans.
func NewBatchScanRange(v storage.ReadView, sf *SelFilter, start, end int) *BatchScanIter {
	nrows := int64(-1)
	if start <= 0 && end >= v.NumPages() {
		nrows = v.NumRows()
	}
	return &BatchScanIter{
		chunk: v.IterateRange(start, end),
		width: len(v.Schema().Cols),
		nrows: nrows,
		ctx:   NewEvalCtx(),
		heap:  v.Owner(),
		sf:    sf,
	}
}

// SetPageSkip installs a page-skip predicate on the underlying chunk
// cursor (storage page summaries); must be called before the first
// NextBatch.
func (s *BatchScanIter) SetPageSkip(f func(*storage.PageSummary) bool) { s.chunk.SetSkip(f) }

// Close implements BatchIterator.
func (s *BatchScanIter) Close() {
	s.chunk.Close()
	if s.selBatches > 0 && s.heap != nil {
		s.heap.RecordSelBatches(s.selBatches)
		s.selBatches = 0
	}
	if s.own != nil {
		PutBatch(s.own)
		s.own = nil
	}
}

// SizeHint implements BatchSizeHinter: exact for an unfiltered scan of the
// whole heap. A partition's share of the rows is unknown until it is read.
func (s *BatchScanIter) SizeHint() (int64, bool) {
	if s.sf != nil || s.nrows < 0 {
		return 0, false
	}
	return s.nrows, true
}

// ---------- Batch filter / project / limit ----------

// BatchFilterIter drops rows failing the predicate, evaluating it once per
// batch. Output batches are compacted copies, never aliases of the input.
type BatchFilterIter struct {
	In   BatchIterator
	Pred Expr

	ctx  *EvalCtx
	out  *RowBatch
	keep []bool
}

// NextBatch implements BatchIterator.
func (f *BatchFilterIter) NextBatch() (*RowBatch, error) {
	if f.ctx == nil {
		f.ctx = NewEvalCtx()
	}
	for {
		in, err := f.In.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		f.ctx.BeginBatch()
		keep, err := EvalPredBatch(f.Pred, in, f.ctx, f.keep)
		if err != nil {
			return nil, err
		}
		f.keep = keep
		if f.out == nil {
			f.out = NewRowBatch(in.Width(), in.Len())
		}
		out := f.out
		out.Reset()
		for len(out.Cols) < in.Width() {
			out.Cols = append(out.Cols, nil)
			out.Nulls = append(out.Nulls, nil)
		}
		n := in.Len()
		sel := in.Sel
		kept := 0
		for si := 0; si < n; si++ {
			if keep[si] {
				kept++
			}
		}
		for j := range in.Cols {
			src := in.Cols[j]
			col := out.Cols[j][:0]
			// A column-pruned scan leaves unneeded columns empty; keep
			// them empty rather than indexing past their length. The keep
			// mask is logical, so a selection-carrying input is compacted
			// through its Sel here (the output is always dense).
			if len(src) == in.PhysLen() {
				for si := 0; si < n; si++ {
					if keep[si] {
						col = append(col, src[selIdx(sel, si)])
					}
				}
			}
			out.SetCol(j, col)
		}
		out.n = kept
		if out.n > 0 {
			return out, nil
		}
	}
}

// Close implements BatchIterator.
func (f *BatchFilterIter) Close() { f.In.Close() }

// RowBudgeter is implemented by cardinality-preserving batch operators
// that can skip work for rows a LIMIT above them will discard. A parent
// LIMIT announces the remaining row budget before each NextBatch pull; the
// operator truncates its input batch to the budget *before* evaluating
// expressions, so a batch pipeline never evaluates (and never surfaces
// errors from) rows a row-at-a-time pipeline would not reach.
type RowBudgeter interface {
	SetRowBudget(n int64)
}

// truncateBatch trims b to at most n logical rows (pruned empty columns
// are left untouched). A selection-carrying batch is trimmed by shortening
// its selection vector; the physical columns stay intact because they may
// alias immutable frozen-page storage.
func truncateBatch(b *RowBatch, n int64) {
	if n < 0 || int64(b.Len()) <= n {
		return
	}
	if b.Sel != nil {
		b.Sel = b.Sel[:n]
		return
	}
	for j := range b.Cols {
		if int64(len(b.Cols[j])) > n {
			b.Cols[j] = b.Cols[j][:n]
		}
	}
	b.n = int(n)
}

// BatchProjectIter evaluates output expressions once per batch. Output
// columns may alias input columns (plain column projections are free).
type BatchProjectIter struct {
	In    BatchIterator
	Exprs []Expr

	ctx       *EvalCtx
	out       *RowBatch
	budget    int64
	budgetSet bool
}

// SetRowBudget implements RowBudgeter: projection preserves cardinality,
// so rows beyond the parent LIMIT's budget can be dropped before any
// expression is evaluated.
func (p *BatchProjectIter) SetRowBudget(n int64) {
	p.budget, p.budgetSet = n, true
	if rb, ok := p.In.(RowBudgeter); ok {
		rb.SetRowBudget(n)
	}
}

// NextBatch implements BatchIterator.
func (p *BatchProjectIter) NextBatch() (*RowBatch, error) {
	if p.ctx == nil {
		p.ctx = NewEvalCtx()
	}
	in, err := p.In.NextBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	if p.budgetSet {
		truncateBatch(in, p.budget)
		p.budgetSet = false
	}
	if p.out == nil {
		p.out = &RowBatch{
			Cols:  make([][]types.Datum, len(p.Exprs)),
			Nulls: make([]NullBitmap, len(p.Exprs)),
		}
	}
	out := p.out
	out.n = 0
	p.ctx.BeginBatch()
	for j, e := range p.Exprs {
		// Plain column projections alias the input column and its bitmap;
		// no copy, no bitmap rescan.
		if ce, ok := e.(*ColExpr); ok && ce.Idx >= 0 && ce.Idx < in.Width() {
			out.AliasCol(j, in, ce.Idx)
			continue
		}
		col, err := EvalBatch(e, in, p.ctx)
		if err != nil {
			return nil, err
		}
		out.SetCol(j, col)
	}
	// Projection preserves the physical layout: output columns are aliases
	// or PhysLen-sized evaluation results, so the input's selection vector
	// carries over verbatim.
	out.n = in.PhysLen()
	out.Sel = in.Sel
	return out, nil
}

// Close implements BatchIterator.
func (p *BatchProjectIter) Close() { p.In.Close() }

// SizeHint implements BatchSizeHinter (projection preserves cardinality).
func (p *BatchProjectIter) SizeHint() (int64, bool) {
	if sh, ok := p.In.(BatchSizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// BatchLimitIter stops after N rows, truncating the final batch.
type BatchLimitIter struct {
	In BatchIterator
	N  int64

	seen int64
}

// NextBatch implements BatchIterator.
func (l *BatchLimitIter) NextBatch() (*RowBatch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	// Announce the remaining budget so budget-aware children (Project,
	// MultiExtract) stop evaluating expressions past the limit.
	if rb, ok := l.In.(RowBudgeter); ok {
		rb.SetRowBudget(l.N - l.seen)
	}
	b, err := l.In.NextBatch()
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	truncateBatch(b, l.N-l.seen)
	l.seen += int64(b.Len())
	return b, nil
}

// Close implements BatchIterator.
func (l *BatchLimitIter) Close() { l.In.Close() }

// ---------- Fused multi-extraction ----------

// BatchMultiExtractIter appends K computed columns to every input batch,
// all filled by one MultiExtractKernel invocation per batch: the kernel
// decodes each serialized record of column DataIdx once and resolves every
// requested key from that single pass, replacing K independent extraction
// UDF evaluations. Input columns pass through by alias.
type BatchMultiExtractIter struct {
	In      BatchIterator
	DataIdx int
	Kernel  MultiExtractKernel
	K       int
	// SegKernel, when set, handles batches whose data column carries a
	// striped ColumnSegment (RowBatch.Segs, attached by striped scans):
	// the requested keys are read from the segment's per-attribute vectors
	// instead of decoding each record. A segment the kernel does not
	// recognize falls back to Kernel over the materialized column.
	SegKernel SegExtractKernel

	out       *RowBatch
	cols      [][]types.Datum
	segs      []storage.ColumnSegment
	budget    int64
	budgetSet bool
}

// SetRowBudget implements RowBudgeter (extraction preserves cardinality).
func (m *BatchMultiExtractIter) SetRowBudget(n int64) {
	m.budget, m.budgetSet = n, true
	if rb, ok := m.In.(RowBudgeter); ok {
		rb.SetRowBudget(n)
	}
}

// NextBatch implements BatchIterator.
func (m *BatchMultiExtractIter) NextBatch() (*RowBatch, error) {
	in, err := m.In.NextBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	if m.budgetSet {
		truncateBatch(in, m.budget)
		m.budgetSet = false
	}
	inW := in.Width()
	outW := inW + m.K
	if m.out == nil {
		m.out = &RowBatch{
			Cols:  make([][]types.Datum, outW),
			Nulls: make([]NullBitmap, outW),
		}
		m.cols = make([][]types.Datum, m.K)
	}
	out := m.out
	out.n = 0
	for len(out.Cols) < outW {
		out.Cols = append(out.Cols, nil)
		out.Nulls = append(out.Nulls, nil)
	}
	for j := 0; j < inW; j++ {
		out.AliasCol(j, in, j)
	}
	// Segments pass through like columns do (appended extraction outputs
	// are plain), so a further extraction stacked above still sees its data
	// column striped.
	out.Segs = nil
	if in.Segs != nil {
		if cap(m.segs) < outW {
			m.segs = make([]storage.ColumnSegment, outW)
		}
		segs := m.segs[:outW]
		copy(segs, in.Segs)
		for j := len(in.Segs); j < outW; j++ {
			segs[j] = nil
		}
		out.Segs = segs
	}
	// Kernels fill every physical row: a selection-carrying batch keeps its
	// columns (and the backing segment) at full page length, and extraction
	// over rows the selection dropped is harmless — they are valid records.
	n := in.PhysLen()
	for k := 0; k < m.K; k++ {
		if cap(m.cols[k]) < n {
			m.cols[k] = make([]types.Datum, n)
		}
		m.cols[k] = m.cols[k][:n]
	}
	handled := false
	if m.SegKernel != nil && m.DataIdx < len(in.Segs) {
		if seg := in.Segs[m.DataIdx]; seg != nil && seg.NumRows() == n {
			var err error
			handled, err = m.SegKernel(seg, m.cols)
			if err != nil {
				return nil, err
			}
		}
	}
	if !handled {
		if len(in.Cols[m.DataIdx]) != n {
			return nil, fmt.Errorf("exec: multi-extract data column %d not materialized (%d of %d rows)",
				m.DataIdx, len(in.Cols[m.DataIdx]), n)
		}
		if err := m.Kernel(in.Cols[m.DataIdx], m.cols); err != nil {
			return nil, err
		}
	}
	for k := 0; k < m.K; k++ {
		out.SetCol(inW+k, m.cols[k])
	}
	out.n = n
	out.Sel = in.Sel
	return out, nil
}

// Close implements BatchIterator.
func (m *BatchMultiExtractIter) Close() { m.In.Close() }

// SizeHint implements BatchSizeHinter (extraction preserves cardinality).
func (m *BatchMultiExtractIter) SizeHint() (int64, bool) {
	if sh, ok := m.In.(BatchSizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// SizeHint implements BatchSizeHinter.
func (l *BatchLimitIter) SizeHint() (int64, bool) {
	if sh, ok := l.In.(BatchSizeHinter); ok {
		if n, exact := sh.SizeHint(); exact {
			if n > l.N {
				n = l.N
			}
			return n, true
		}
	}
	return l.N, true
}
