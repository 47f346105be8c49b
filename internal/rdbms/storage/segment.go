package storage

import (
	"fmt"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the segment store beside the row heap: full, cold
// pages are frozen into column-striped form — per-column value vectors,
// with serialized-record columns handed to a ColumnSegmenter that stripes
// them into per-attribute vectors (internal/serial's segment format). The
// heap becomes a hybrid of a write-hot row tail and immutable striped
// pages; UPDATE/DELETE transparently un-freeze a page back to rows, so
// mutation semantics, heap iteration order, and pager accounting are
// unchanged. The storage layer stays ignorant of the segment encoding:
// it sees only the ColumnSegment interface the upper layer implements.

// ColumnSegment is a striped encoding of one column of one frozen page,
// produced by a ColumnSegmenter. Implementations are immutable and safe
// for concurrent readers.
type ColumnSegment interface {
	// NumRows returns the row count of the page the segment covers.
	NumRows() int
	// AttrIDs returns the attribute IDs striped anywhere in the segment,
	// ascending — the page-summary attribute set of the column.
	AttrIDs() []uint32
	// Values reconstructs the column's row-format datums into dst, which
	// has NumRows entries (the un-freeze and row-path read).
	Values(dst []types.Datum) error
}

// ColumnSegmenter stripes one column of a full page. vals holds the
// column's datums in slot order. Returning (nil, nil) keeps the column as
// a plain vector; an error vetoes freezing the page (the rows stay).
type ColumnSegmenter func(col int, vals []types.Datum) (ColumnSegment, error)

// AttrZone is the zone map of one striped attribute vector within a
// ColumnSegment: how many records carry the attribute (Present) and, for
// ordered numeric encodings, the min/max of its values. A zone with
// HasRange unset still proves presence counts; Min/Max are only
// meaningful when HasRange is set.
type AttrZone struct {
	ID       uint32
	Present  int
	Min, Max types.Datum
	HasRange bool
}

// ZoneMapped is implemented by ColumnSegments that expose per-attribute
// zone maps (the serial segment footer's min/max and presence counts).
// Freezing attaches the zones to the page summary, so scans skip whole
// frozen pages on attribute-level range predicates before decoding them.
type ZoneMapped interface {
	AttrZones() []AttrZone
}

// DefaultFreezeMinPages is the load-time compaction threshold: once a heap
// has at least this many pages, pages freeze as they fill. Below it only
// ANALYZE (FreezeColdPages) compacts, keeping small hot tables row-form.
const DefaultFreezeMinPages = 64

// PageCapacity is the heap page grouping factor. Batch scans size their
// ReadPage row buffers with it: a smaller buffer would silently
// drop rows of a full row-form page.
const PageCapacity = rowsPerPage

// FrozenCol is one column of a frozen page: either a plain datum vector
// with a null bitmap, or a ColumnSegment for striped serialized columns.
type FrozenCol struct {
	Vals  []types.Datum // plain vector (nil when Seg is set)
	Nulls []uint64      // bit set = NULL (plain vectors only)
	Seg   ColumnSegment // striped column (nil for plain vectors)
}

// FrozenPage is the striped form of one full heap page.
type FrozenPage struct {
	n    int
	cols []FrozenCol

	rowsOnce sync.Once
	rows     []Row // lazy row-form cache for row-path readers
	rowsErr  error

	mu      sync.Mutex
	segVals [][]types.Datum // lazy per-column datum cache for Seg columns
	segNull [][]uint64
}

// NumRows returns the page's row count.
func (fp *FrozenPage) NumRows() int { return fp.n }

// NumCols returns the page's column count.
func (fp *FrozenPage) NumCols() int { return len(fp.cols) }

// Col returns column j's striped form. Exactly one of (vals, seg) is set;
// vals and nulls alias the frozen page and must not be mutated.
func (fp *FrozenPage) Col(j int) (vals []types.Datum, nulls []uint64, seg ColumnSegment) {
	c := fp.cols[j]
	return c.Vals, c.Nulls, c.Seg
}

// ColVals returns column j as a plain datum vector, materializing (and
// caching) segment columns on first use. The result aliases the frozen
// page; callers must not mutate it.
func (fp *FrozenPage) ColVals(j int) ([]types.Datum, []uint64, error) {
	c := fp.cols[j]
	if c.Seg == nil {
		return c.Vals, c.Nulls, nil
	}
	ncols := len(fp.cols)
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.segVals == nil {
		fp.segVals = make([][]types.Datum, ncols)
		fp.segNull = make([][]uint64, ncols)
	}
	if fp.segVals[j] == nil {
		vals := make([]types.Datum, fp.n)
		if err := c.Seg.Values(vals); err != nil {
			return nil, nil, err
		}
		nulls := make([]uint64, (fp.n+63)/64)
		for i, d := range vals {
			if d.IsNull() {
				nulls[i/64] |= 1 << uint(i%64)
			}
		}
		fp.segVals[j] = vals
		fp.segNull[j] = nulls
	}
	return fp.segVals[j], fp.segNull[j], nil
}

// materializeRows builds (once) the row-form view of the page for
// row-path readers and the un-freeze path.
func (fp *FrozenPage) materializeRows() ([]Row, error) {
	fp.rowsOnce.Do(func() {
		cols := make([][]types.Datum, len(fp.cols))
		for j := range fp.cols {
			vals, _, err := fp.ColVals(j)
			if err != nil {
				fp.rowsErr = fmt.Errorf("storage: un-freeze column %d: %w", j, err)
				return
			}
			cols[j] = vals
		}
		rows := make([]Row, fp.n)
		for i := 0; i < fp.n; i++ {
			r := make(Row, len(cols))
			for j := range cols {
				r[j] = cols[j][i]
			}
			rows[i] = r
		}
		fp.rows = rows
	})
	return fp.rows, fp.rowsErr
}

// SetColumnSegmenter installs fn as the page segmenter. Compaction only
// happens on heaps with a segmenter (Sinew installs one per collection).
func (h *Heap) SetColumnSegmenter(fn ColumnSegmenter) {
	h.segmenter = fn
	if h.freezeMinPages == 0 {
		h.freezeMinPages = DefaultFreezeMinPages
	}
}

// SetFreezeMinPages overrides the load-time compaction threshold (tests
// and benchmarks; 0 restores the default).
func (h *Heap) SetFreezeMinPages(n int) {
	if n <= 0 {
		n = DefaultFreezeMinPages
	}
	h.freezeMinPages = n
}

// NumFrozenPages reports how many pages are currently frozen.
func (h *Heap) NumFrozenPages() int { return h.frozen }

// Segmented reports whether any page of the heap is frozen (the planner's
// test for routing fused extraction to segment kernels).
func (h *Heap) Segmented() bool { return h.frozen > 0 }

// FreezeColdPages stripes every eligible page — full, no deleted slots,
// not already frozen — and returns how many pages it froze. ANALYZE calls
// it so compaction follows the same trigger as statistics refresh.
func (h *Heap) FreezeColdPages() int {
	if h.segmenter == nil {
		return 0
	}
	n := 0
	for pi := range h.pages {
		if h.freezePageAt(pi) {
			n++
		}
	}
	return n
}

// freezePageAt stripes the page at index pi; returns false when the page
// is ineligible or the segmenter vetoes it. Freezing never mutates the
// existing page struct — it installs a fresh frozen page in its slot, so
// snapshot readers pinned to the row-form version are untouched. A
// carried-over skip summary is cloned for the same reason (attachZones
// writes into it).
func (h *Heap) freezePageAt(pi int) bool {
	p := h.pages[pi]
	if h.segmenter == nil || p.frozen != nil || len(p.rows) != rowsPerPage {
		return false
	}
	for _, r := range p.rows {
		if r == nil {
			return false // deleted slot: page is not cold
		}
	}
	ncols := len(h.schema.Cols)
	fp := &FrozenPage{n: len(p.rows), cols: make([]FrozenCol, ncols)}
	for j := 0; j < ncols; j++ {
		vals := make([]types.Datum, len(p.rows))
		for i, r := range p.rows {
			vals[i] = r[j]
		}
		seg, err := h.segmenter(j, vals)
		if err != nil {
			return false // unstripeable value: keep the rows
		}
		if seg != nil {
			if seg.NumRows() != len(p.rows) {
				return false
			}
			fp.cols[j] = FrozenCol{Seg: seg}
			continue
		}
		nulls := make([]uint64, (len(vals)+63)/64)
		for i, d := range vals {
			if d.IsNull() {
				nulls[i/64] |= 1 << uint(i%64)
			}
		}
		fp.cols[j] = FrozenCol{Vals: vals, Nulls: nulls}
	}
	striped := false
	for j := range fp.cols {
		if fp.cols[j].Seg != nil {
			striped = true
			break
		}
	}
	if !striped {
		return false // nothing column-striped: freezing buys nothing
	}
	// The page summary outlives the rows: frozen pages are immutable, so
	// build it now if stale. Segment-striped columns contribute their
	// attribute-ID sets straight from the segment footer — no per-record
	// summarizer parses — and become attribute-tracked even without a
	// summarizer, so extractions over any striped column can skip pages.
	sum := p.sum.clone()
	if sum == nil {
		segCols := make(map[int]bool, len(fp.cols))
		for j := range fp.cols {
			if fp.cols[j].Seg != nil {
				segCols[j] = true
			}
		}
		s := newPageSummary()
		for _, r := range p.rows {
			h.noteRowExcept(s, r, segCols)
			if !s.valid {
				break
			}
		}
		if s.valid {
			for j := range fp.cols {
				if seg := fp.cols[j].Seg; seg != nil {
					for _, id := range seg.AttrIDs() {
						s.insertAttr(j, id)
					}
				}
			}
			sum = s
		}
	}
	// Zone maps attach whether the summary was just built or carried over
	// from incremental inserts: the page is immutable from here on, so the
	// footer extrema stay exact until un-freeze invalidates the summary.
	sum.attachZones(fp)
	h.pages[pi] = &page{frozen: fp, bytes: p.bytes, sum: sum}
	h.frozen++
	return true
}

// pageRows returns the row-form view of p, materializing frozen pages
// lazily (without un-freezing them). A frozen page that fails to
// materialize returns nil — callers see an empty page rather than a
// panic; un-freeze surfaces the error.
func pageRows(p *page) []Row {
	if p.frozen == nil {
		return p.rows
	}
	rows, err := p.frozen.materializeRows()
	if err != nil {
		return nil
	}
	return rows
}

// PageView is one page as delivered to the batch scan: either a
// frozen striped page or the live rows of a row-form page.
type PageView struct {
	Frozen *FrozenPage // non-nil for frozen pages
	Rows   []Row       // live rows (row-form pages)
}

// ReadPage returns the next unskipped page of the range as a whole —
// frozen pages striped, row pages as live rows copied into rowBuf (which
// must hold a full page). ok=false means the range is exhausted. Byte
// accounting matches ReadRows: entering a page charges its bytes, skipped
// pages charge nothing, and frozen pages additionally count toward the
// pager's segments-scanned counter.
func (it *HeapChunkIter) ReadPage(rowBuf []Row) (PageView, bool) {
	for it.page < it.end {
		p := it.pages[it.page]
		if it.slot == 0 && it.skip != nil && p.sum.usable() && it.skip(p.sum) {
			it.pendingSkipped++
			it.page++
			continue
		}
		it.pending += p.bytes
		it.page++
		it.slot = 0
		if p.frozen != nil {
			it.pendingSegScanned++
			return PageView{Frozen: p.frozen}, true
		}
		n := 0
		for _, r := range p.rows {
			if r != nil && n < len(rowBuf) {
				rowBuf[n] = r
				n++
			}
		}
		if n == 0 {
			continue // fully deleted page
		}
		return PageView{Rows: rowBuf[:n]}, true
	}
	it.flush()
	return PageView{}, false
}
