// Package storage implements the physical layer of the embedded RDBMS:
// heap tables organized into pages, a byte-accounting pager that models I/O,
// and per-column statistics for the optimizer.
//
// The heap is a row store in the style of Postgres: each row carries a small
// header plus a null bitmap (one bit per schema attribute), so NULLs in wide
// sparse schemas cost one bit, not a column width — the property §3.1.1 of
// the Sinew paper relies on when choosing Postgres as the substrate.
package storage

import (
	"fmt"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Column describes one attribute of a table schema.
type Column struct {
	Name    string
	Typ     types.Type
	NotNull bool
}

// Schema is an ordered set of columns with name lookup.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema; duplicate column names are an error.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.Cols {
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// ColumnIndex returns the position of name, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// AddColumn appends a column (ALTER TABLE ... ADD COLUMN).
func (s *Schema) AddColumn(c Column) error {
	if _, dup := s.byName[c.Name]; dup {
		return fmt.Errorf("storage: column %q already exists", c.Name)
	}
	s.byName[c.Name] = len(s.Cols)
	s.Cols = append(s.Cols, c)
	return nil
}

// DropColumn removes a column from the schema (ALTER TABLE ... DROP).
func (s *Schema) DropColumn(name string) error {
	i, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("storage: column %q does not exist", name)
	}
	s.Cols = append(s.Cols[:i], s.Cols[i+1:]...)
	delete(s.byName, name)
	for j := i; j < len(s.Cols); j++ {
		s.byName[s.Cols[j].Name] = j
	}
	return nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c, _ := NewSchema(s.Cols...)
	return c
}

// Row is one tuple; len(Row) always equals len(Schema.Cols) of its table.
type Row []types.Datum

// Clone deep-copies the row (datum payloads that alias memory — bytes,
// arrays — are shared; callers treat datums as immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// rowsPerPage is the heap page grouping factor. Pages are the unit of I/O
// accounting; the value trades accounting granularity against bookkeeping.
const rowsPerPage = 128

// rowHeaderBytes models the fixed per-tuple header (Postgres: 23 bytes +
// alignment). The null bitmap is added per schema width.
const rowHeaderBytes = 24

// page groups rows for I/O accounting.
type page struct {
	rows  []Row
	bytes int64 // estimated on-disk footprint of live rows
	// sum is the page's skip summary (pageskip.go); nil when stale.
	sum *PageSummary
	// frozen is the page's column-striped form (segment.go); while set,
	// rows is nil and row-path readers materialize lazily from it.
	frozen *FrozenPage
	// shared marks the page as referenced by a published snapshot
	// (snapshot.go). Once set, no other field may be written: mutators go
	// through the writable*Page helpers, which install a fresh page struct
	// in the live table instead. Only the publisher writes this flag (under
	// the table write lock) and only mutators read it; snapshot readers
	// never touch it.
	shared bool
}

// Heap is a mutable row store for one table.
//
// Concurrency: Heap mutators are not internally synchronized; the rdbms
// layer serializes writers with its table locks. Readers do not need any
// lock: they pin an immutable HeapSnapshot (snapshot.go) published by the
// last committed statement. The pager it reports to is safe for
// concurrent use.
type Heap struct {
	schema *Schema
	pages  []*page
	nrows  int64
	bytes  int64
	pager  *Pager
	// summarizers maps column index -> attribute summarizer for per-page
	// skip summaries (pageskip.go).
	summarizers map[int]AttrSummarizer
	// segmenter stripes cold pages into column segments (segment.go);
	// frozen counts the pages currently in striped form.
	segmenter      ColumnSegmenter
	freezeMinPages int
	frozen         int
	// epoch counts publishes; snap holds the latest published snapshot
	// (snapshot.go).
	epoch uint64
	snap  snapPtr
}

// NewHeap creates an empty heap over schema, reporting I/O to pager
// (which may be nil for untracked scratch tables). The empty state is
// published so CurrentSnapshot is never nil.
func NewHeap(schema *Schema, pager *Pager) *Heap {
	h := &Heap{schema: schema, pager: pager}
	h.Publish()
	return h
}

// Schema returns the heap's schema (shared, not a copy).
func (h *Heap) Schema() *Schema { return h.schema }

// NumRows returns the live row count.
func (h *Heap) NumRows() int64 { return h.nrows }

// SizeBytes returns the estimated on-disk size of the table.
func (h *Heap) SizeBytes() int64 { return h.bytes }

// rowFootprint estimates the stored size of row under the current schema:
// header + null bitmap + non-null datum payloads.
func (h *Heap) rowFootprint(row Row) int64 {
	return rowFootprintIn(h.schema, row)
}

func rowFootprintIn(schema *Schema, row Row) int64 {
	n := int64(rowHeaderBytes) + int64((len(schema.Cols)+7)/8)
	for _, d := range row {
		n += d.SizeBytes()
	}
	return n
}

// Insert appends a row. The row must match the schema width; NOT NULL
// constraints are enforced here.
func (h *Heap) Insert(row Row) error {
	if len(row) != len(h.schema.Cols) {
		return fmt.Errorf("storage: row width %d does not match schema width %d", len(row), len(h.schema.Cols))
	}
	for i, c := range h.schema.Cols {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("storage: null value in column %q violates not-null constraint", c.Name)
		}
	}
	var p *page
	if n := len(h.pages); n > 0 && h.pages[n-1].frozen == nil && len(h.pages[n-1].rows) < rowsPerPage {
		p = h.writableTailPage()
	} else {
		p = &page{rows: make([]Row, 0, rowsPerPage), sum: newPageSummary()}
		h.pages = append(h.pages, p)
	}
	fp := h.rowFootprint(row)
	p.rows = append(p.rows, row)
	p.bytes += fp
	if p.sum != nil {
		h.noteRow(p.sum, row)
		if !p.sum.valid {
			p.sum = nil
		}
	}
	h.nrows++
	h.bytes += fp
	if h.pager != nil {
		h.pager.recordWrite(fp)
	}
	// Load-time compaction: once the heap is past the size threshold,
	// pages freeze as they fill (the write-hot tail stays row-form).
	if len(p.rows) == rowsPerPage && h.segmenter != nil && len(h.pages) >= h.freezeMinPages {
		h.freezePageAt(len(h.pages) - 1)
	}
	return nil
}

// LastRowID returns the address of the most recently inserted row; it is
// only meaningful immediately after Insert on a non-empty heap.
func (h *Heap) LastRowID() RowID {
	p := len(h.pages) - 1
	if p < 0 {
		return RowID{Page: -1, Slot: -1}
	}
	return RowID{Page: p, Slot: len(h.pages[p].rows) - 1}
}

// RowID addresses a row stably across updates (not deletes).
type RowID struct {
	Page int
	Slot int
}

// Scan iterates all live rows in heap order, charging page reads to the
// pager. fn may not retain the row slice across calls unless it clones.
// Returning false from fn stops the scan early (remaining pages unread).
func (h *Heap) Scan(fn func(id RowID, row Row) bool) {
	scanPages(h.pages, h.pager, fn)
}

// scanPages is Scan over an explicit page table (shared by the live heap
// and snapshots).
func scanPages(pages []*page, pager *Pager, fn func(id RowID, row Row) bool) {
	for pi, p := range pages {
		if pager != nil {
			pager.recordRead(p.bytes)
		}
		for si, r := range pageRows(p) {
			if r == nil {
				continue // deleted
			}
			if !fn(RowID{Page: pi, Slot: si}, r) {
				return
			}
		}
	}
}

// HeapIter is a pull-style cursor over live rows in heap order. Page reads
// accumulate locally and are flushed to the pager in one batch when the
// scan reaches the end or the iterator is closed — callers that may stop
// early (LIMIT) must Close the iterator or the bytes it touched are never
// recorded.
type HeapIter struct {
	pages   []*page
	pager   *Pager
	page    int
	slot    int
	pending int64 // page bytes entered but not yet reported to the pager
	read    int64 // total bytes this iterator has charged
}

// Iterate returns a cursor positioned before the first row. The cursor
// captures the page table at creation, so a cursor made from a snapshot
// never observes later writes.
func (h *Heap) Iterate() *HeapIter { return &HeapIter{pages: h.pages, pager: h.pager} }

// Next returns the next live row, or ok=false at the end.
func (it *HeapIter) Next() (RowID, Row, bool) {
	for it.page < len(it.pages) {
		p := it.pages[it.page]
		if it.slot == 0 {
			it.pending += p.bytes
		}
		rows := pageRows(p)
		for it.slot < len(rows) {
			s := it.slot
			it.slot++
			if rows[s] != nil {
				return RowID{Page: it.page, Slot: s}, rows[s], true
			}
		}
		it.page++
		it.slot = 0
	}
	it.flush()
	return RowID{}, nil, false
}

// flush reports accumulated page bytes to the pager (idempotent).
func (it *HeapIter) flush() {
	if it.pending == 0 {
		return
	}
	if it.pager != nil {
		it.pager.recordRead(it.pending)
	}
	it.read += it.pending
	it.pending = 0
}

// Close finalizes pager accounting for a scan abandoned before the end
// (LIMIT, error); safe to call more than once and after exhaustion.
func (it *HeapIter) Close() { it.flush() }

// BytesRead reports the bytes this iterator has charged to the pager so
// far (flushed bytes only).
func (it *HeapIter) BytesRead() int64 { return it.read }

// NumPages returns the current page count (the unit partitions divide).
func (h *Heap) NumPages() int { return len(h.pages) }

// PageRange is a half-open contiguous run of pages [Start, End) — the unit
// of work of a partitioned parallel scan.
type PageRange struct {
	Start, End int
}

// Partitions splits the heap's pages into at most n near-equal contiguous
// ranges (fewer when the heap has fewer pages than n). An empty heap
// yields no partitions.
func (h *Heap) Partitions(n int) []PageRange {
	return partitionRanges(len(h.pages), n)
}

// partitionRanges splits a page count into near-equal contiguous ranges.
func partitionRanges(pages, n int) []PageRange {
	if n < 1 {
		n = 1
	}
	if n > pages {
		n = pages
	}
	out := make([]PageRange, 0, n)
	for i := 0; i < n; i++ {
		start := pages * i / n
		end := pages * (i + 1) / n
		if start < end {
			out = append(out, PageRange{Start: start, End: end})
		}
	}
	return out
}

// HeapChunkIter reads live rows of a page range in bulk (ReadRows) or a
// page at a time (ReadPage, the batch scan's feeder). Like HeapIter it
// accumulates page-read bytes locally and flushes them to the pager at
// the end of the range or on Close, and it tracks bytes per iterator so a
// partitioned scan can report byte accounting per partition.
type HeapChunkIter struct {
	pages   []*page
	pager   *Pager
	page    int
	end     int
	slot    int
	pending int64
	read    int64
	// skip, when set, is consulted at each page boundary: returning true
	// for a page with a usable summary skips the whole page, charging no
	// read bytes (that is the I/O win page summaries buy).
	skip           func(*PageSummary) bool
	skipped        int64 // pages skipped and already reported to the pager
	pendingSkipped int64 // pages skipped but not yet reported
	// frozen pages delivered striped via ReadPage, pending pager report.
	pendingSegScanned int64
}

// SetSkip installs a page-skip predicate; must be called before the first
// ReadRows. The predicate must return true only when the page summary
// proves no live row can satisfy the scan's filter.
func (it *HeapChunkIter) SetSkip(f func(*PageSummary) bool) { it.skip = f }

// PagesSkipped reports how many whole pages the predicate eliminated.
func (it *HeapChunkIter) PagesSkipped() int64 { return it.skipped + it.pendingSkipped }

// IterateRange returns a chunk cursor over pages [start, end); end is
// clamped to the page count. Like Iterate, the cursor captures the page
// table at creation.
func (h *Heap) IterateRange(start, end int) *HeapChunkIter {
	return newChunkIter(h.pages, h.pager, start, end)
}

func newChunkIter(pages []*page, pager *Pager, start, end int) *HeapChunkIter {
	if start < 0 {
		start = 0
	}
	if end > len(pages) {
		end = len(pages)
	}
	return &HeapChunkIter{pages: pages, pager: pager, page: start, end: end, slot: 0}
}

// ReadRows fills dst with the next live rows in heap order and returns the
// count; 0 means the range is exhausted. Rows are shared with the heap and
// must be treated as immutable.
func (it *HeapChunkIter) ReadRows(dst []Row) int {
	n := 0
	for n < len(dst) && it.page < it.end {
		p := it.pages[it.page]
		if it.slot == 0 {
			if it.skip != nil && p.sum.usable() && it.skip(p.sum) {
				it.pendingSkipped++
				it.page++
				continue
			}
			it.pending += p.bytes
		}
		rows := pageRows(p)
		for it.slot < len(rows) && n < len(dst) {
			if r := rows[it.slot]; r != nil {
				dst[n] = r
				n++
			}
			it.slot++
		}
		if it.slot >= len(rows) {
			it.page++
			it.slot = 0
		}
	}
	if n == 0 {
		it.flush()
	}
	return n
}

func (it *HeapChunkIter) flush() {
	if it.pendingSkipped > 0 {
		if it.pager != nil {
			it.pager.recordPagesSkipped(it.pendingSkipped)
		}
		it.skipped += it.pendingSkipped
		it.pendingSkipped = 0
	}
	if it.pendingSegScanned > 0 {
		if it.pager != nil {
			it.pager.recordSegScanned(it.pendingSegScanned)
		}
		it.pendingSegScanned = 0
	}
	if it.pending == 0 {
		return
	}
	if it.pager != nil {
		it.pager.recordRead(it.pending)
	}
	it.read += it.pending
	it.pending = 0
}

// Close finalizes pager accounting for an abandoned range; idempotent.
func (it *HeapChunkIter) Close() { it.flush() }

// BytesRead reports the bytes this partition cursor has charged so far.
func (it *HeapChunkIter) BytesRead() int64 { return it.read }

// Get fetches a single row by ID, charging only that row's bytes (a point
// read, as through an index).
func (h *Heap) Get(id RowID) (Row, bool) {
	return getPageRow(h.pages, h.schema, h.pager, id)
}

func getPageRow(pages []*page, schema *Schema, pager *Pager, id RowID) (Row, bool) {
	if id.Page < 0 || id.Page >= len(pages) {
		return nil, false
	}
	rows := pageRows(pages[id.Page])
	if id.Slot < 0 || id.Slot >= len(rows) || rows[id.Slot] == nil {
		return nil, false
	}
	if pager != nil {
		pager.recordRead(rowFootprintIn(schema, rows[id.Slot]))
	}
	return rows[id.Slot], true
}

// Update atomically replaces the row at id. It returns the previous row for
// undo logging.
func (h *Heap) Update(id RowID, row Row) (Row, error) {
	if len(row) != len(h.schema.Cols) {
		return nil, fmt.Errorf("storage: row width %d does not match schema width %d", len(row), len(h.schema.Cols))
	}
	p, old, err := h.slot(id)
	if err != nil {
		return nil, err
	}
	oldFP, newFP := h.rowFootprint(old), h.rowFootprint(row)
	p.rows[id.Slot] = row
	p.bytes += newFP - oldFP
	p.sum = nil // attr set / extrema may have shrunk; rebuilt by ANALYZE
	h.bytes += newFP - oldFP
	if h.pager != nil {
		h.pager.recordWrite(newFP)
	}
	return old, nil
}

// Delete removes the row at id, returning it for undo logging.
func (h *Heap) Delete(id RowID) (Row, error) {
	p, old, err := h.slot(id)
	if err != nil {
		return nil, err
	}
	fp := h.rowFootprint(old)
	p.rows[id.Slot] = nil
	p.bytes -= fp
	p.sum = nil
	h.bytes -= fp
	h.nrows--
	if h.pager != nil {
		h.pager.recordWrite(int64(rowHeaderBytes))
	}
	return old, nil
}

// Restore reinstates a previously deleted row at id (undo of Delete).
func (h *Heap) Restore(id RowID, row Row) error {
	if id.Page < 0 || id.Page >= len(h.pages) {
		return fmt.Errorf("storage: restore: bad page %d", id.Page)
	}
	p, err := h.writableRowPage(id.Page)
	if err != nil {
		return err
	}
	if id.Slot < 0 || id.Slot >= len(p.rows) {
		return fmt.Errorf("storage: restore: bad slot %d", id.Slot)
	}
	if p.rows[id.Slot] != nil {
		return fmt.Errorf("storage: restore: slot %d.%d is occupied", id.Page, id.Slot)
	}
	fp := h.rowFootprint(row)
	p.rows[id.Slot] = row
	p.bytes += fp
	h.bytes += fp
	h.nrows++
	p.sum = nil
	return nil
}

// slot resolves a row for mutation. The page comes back in mutable row
// form: frozen pages un-freeze and snapshot-shared pages are cloned
// first, so writers never touch storage a concurrent reader sees.
func (h *Heap) slot(id RowID) (*page, Row, error) {
	if id.Page < 0 || id.Page >= len(h.pages) {
		return nil, nil, fmt.Errorf("storage: bad page %d", id.Page)
	}
	p, err := h.writableRowPage(id.Page)
	if err != nil {
		return nil, nil, err
	}
	if id.Slot < 0 || id.Slot >= len(p.rows) || p.rows[id.Slot] == nil {
		return nil, nil, fmt.Errorf("storage: no live row at %d.%d", id.Page, id.Slot)
	}
	return p, p.rows[id.Slot], nil
}

// AddColumnData extends every row with a NULL for a newly added column and
// adjusts footprints (the null bitmap may grow by a byte). The rewrite is
// copy-on-write end to end: every page is rebuilt from fresh row slices
// (frozen pages materialize through their shared cache, read-only), so
// snapshot readers pinned to the pre-ALTER epoch keep seeing the old
// shape. Column indices do not shift, so skip summaries carry over
// (cloned — the tail page's summary is mutated by later inserts).
func (h *Heap) AddColumnData() error {
	rowsByPage, unfroze, err := h.materializeAllRows()
	if err != nil {
		return err
	}
	for pi, rows := range rowsByPage {
		old := h.pages[pi]
		np := &page{rows: make([]Row, len(rows), max(rowsPerPage, len(rows))), sum: old.sum.clone()}
		for i, r := range rows {
			if r == nil {
				continue
			}
			nr := make(Row, len(r)+1)
			copy(nr, r)
			nr[len(r)] = types.Datum{Null: true}
			np.rows[i] = nr
			np.bytes += h.rowFootprint(nr)
		}
		h.pages[pi] = np
	}
	h.finishRewrite(unfroze)
	return nil
}

// DropColumnData removes column idx from every row, rebuilding every page
// copy-on-write (see AddColumnData). Summaries are dropped: column
// indices shift, so summaries keyed by index are stale.
func (h *Heap) DropColumnData(idx int) error {
	rowsByPage, unfroze, err := h.materializeAllRows()
	if err != nil {
		return err
	}
	for pi, rows := range rowsByPage {
		np := &page{rows: make([]Row, len(rows), max(rowsPerPage, len(rows)))}
		for i, r := range rows {
			if r == nil {
				continue
			}
			nr := make(Row, 0, len(r)-1)
			nr = append(nr, r[:idx]...)
			nr = append(nr, r[idx+1:]...)
			np.rows[i] = nr
			np.bytes += h.rowFootprint(nr)
		}
		h.pages[pi] = np
	}
	h.remapSummarizersOnDrop(idx)
	h.finishRewrite(unfroze)
	return nil
}

// materializeAllRows returns every page's row-form view without mutating
// any page (phase 1 of a schema rewrite: errors surface before the heap
// changes shape). unfroze counts the frozen pages the rewrite will retire.
func (h *Heap) materializeAllRows() (rowsByPage [][]Row, unfroze int, err error) {
	rowsByPage = make([][]Row, len(h.pages))
	for i, p := range h.pages {
		if p.frozen != nil {
			rows, err := p.frozen.materializeRows()
			if err != nil {
				return nil, 0, err
			}
			rowsByPage[i] = rows
			unfroze++
			continue
		}
		rowsByPage[i] = p.rows
	}
	return rowsByPage, unfroze, nil
}

// finishRewrite settles counters after a whole-heap page rewrite: all
// pages are row-form again and byte totals are recomputed.
func (h *Heap) finishRewrite(unfroze int) {
	h.frozen = 0
	if unfroze > 0 && h.pager != nil {
		h.pager.recordSegUnfrozen(int64(unfroze))
	}
	h.recomputeBytes()
}

func (h *Heap) recomputeBytes() {
	h.bytes = 0
	for _, p := range h.pages {
		h.bytes += p.bytes
	}
}

// Truncate discards all rows.
func (h *Heap) Truncate() {
	h.pages = nil
	h.nrows = 0
	h.bytes = 0
	h.frozen = 0
}

// Pager models storage I/O by counting bytes read and written. The harness
// converts byte counts into an effective scan time under a configured
// bandwidth (DESIGN.md §2): engines whose per-tuple CPU cost is low become
// bandwidth-bound exactly as Sinew does on the paper's 40 GB dataset.
type Pager struct {
	mu           sync.Mutex
	bytesRead    int64
	bytesWritten int64
	// Execution counters (per-query when callers Reset between queries):
	// whole pages eliminated by skip summaries, and parallel-pipeline
	// workers launched.
	pagesSkipped    int64
	parallelWorkers int64
	// Segment counters: frozen pages scanned striped, and frozen pages
	// un-frozen back to rows by writes.
	segScanned  int64
	segUnfrozen int64
	// Selection-vector execution counters: frozen pages eliminated by
	// segment zone maps, selection-carrying batches emitted by striped
	// scans, and striped scans run under a parallel gather.
	zoneSkipped     int64
	selBatches      int64
	parallelStriped int64
	// Order-sensitive operator counters: input batches accumulated by batch
	// sorts, rows discarded on arrival by bounded Top-N heaps, and
	// partitions merged by sorted-merge gathers.
	sortBatches       int64
	topnShortCircuits int64
	sortedMergeParts  int64
	// Snapshot counters (snapshot.go): snapshotsOpen is a gauge of reader
	// pins currently held, snapshotPublishes counts published versions
	// (the global snapshot_epoch), and pagesCoW counts page version splits
	// caused by writes to snapshot-shared pages.
	snapshotsOpen     int64
	snapshotPublishes int64
	pagesCoW          int64
}

// NewPager returns a zeroed pager.
func NewPager() *Pager { return &Pager{} }

func (p *Pager) recordRead(n int64) {
	p.mu.Lock()
	p.bytesRead += n
	p.mu.Unlock()
}

func (p *Pager) recordWrite(n int64) {
	p.mu.Lock()
	p.bytesWritten += n
	p.mu.Unlock()
}

func (p *Pager) recordPagesSkipped(n int64) {
	p.mu.Lock()
	p.pagesSkipped += n
	p.mu.Unlock()
}

func (p *Pager) recordParallelWorkers(n int64) {
	p.mu.Lock()
	p.parallelWorkers += n
	p.mu.Unlock()
}

func (p *Pager) recordSegScanned(n int64) {
	p.mu.Lock()
	p.segScanned += n
	p.mu.Unlock()
}

func (p *Pager) recordSegUnfrozen(n int64) {
	p.mu.Lock()
	p.segUnfrozen += n
	p.mu.Unlock()
}

func (p *Pager) recordZoneSkipped(n int64) {
	p.mu.Lock()
	p.zoneSkipped += n
	p.mu.Unlock()
}

func (p *Pager) recordSelBatches(n int64) {
	p.mu.Lock()
	p.selBatches += n
	p.mu.Unlock()
}

func (p *Pager) recordParallelStriped(n int64) {
	p.mu.Lock()
	p.parallelStriped += n
	p.mu.Unlock()
}

func (p *Pager) recordSortBatches(n int64) {
	p.mu.Lock()
	p.sortBatches += n
	p.mu.Unlock()
}

func (p *Pager) recordTopNShortCircuits(n int64) {
	p.mu.Lock()
	p.topnShortCircuits += n
	p.mu.Unlock()
}

func (p *Pager) recordSortedMergeParts(n int64) {
	p.mu.Lock()
	p.sortedMergeParts += n
	p.mu.Unlock()
}

func (p *Pager) recordSnapshotPin(delta int64) {
	p.mu.Lock()
	p.snapshotsOpen += delta
	p.mu.Unlock()
}

func (p *Pager) recordSnapshotPublish() {
	p.mu.Lock()
	p.snapshotPublishes++
	p.mu.Unlock()
}

func (p *Pager) recordPageCoW(n int64) {
	p.mu.Lock()
	p.pagesCoW += n
	p.mu.Unlock()
}

// SnapshotStats returns the snapshot counters: reader pins currently open
// (a gauge), snapshots published since the database opened (the global
// snapshot epoch), and page version splits caused by copy-on-write.
// Unlike the per-query counters these survive Reset: the gauge tracks
// outstanding pins and the epoch is monotonic by design.
func (p *Pager) SnapshotStats() (open, epoch, pagesCoW int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotsOpen, p.snapshotPublishes, p.pagesCoW
}

// SortStats returns the order-sensitive operator counters: batches
// accumulated by batch sorts, rows discarded on arrival by bounded Top-N
// heaps, and partitions merged by sorted-merge gathers since the last
// Reset.
func (p *Pager) SortStats() (sortBatches, topnShortCircuits, sortedMergeParts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sortBatches, p.topnShortCircuits, p.sortedMergeParts
}

// SelStats returns the selection-vector execution counters: frozen pages
// eliminated by segment zone maps, selection-carrying batches emitted by
// striped scans, and striped scans run under a parallel gather since the
// last Reset.
func (p *Pager) SelStats() (zoneSkipped, selBatches, parallelStriped int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.zoneSkipped, p.selBatches, p.parallelStriped
}

// SegStats returns the segment execution counters: frozen pages scanned
// striped and frozen pages un-frozen by writes since the last Reset.
func (p *Pager) SegStats() (segScanned, segUnfrozen int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.segScanned, p.segUnfrozen
}

// Stats returns cumulative bytes read and written.
func (p *Pager) Stats() (read, written int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytesRead, p.bytesWritten
}

// ExecStats returns the execution counters: pages eliminated by skip
// summaries and parallel workers launched since the last Reset.
func (p *Pager) ExecStats() (pagesSkipped, parallelWorkers int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pagesSkipped, p.parallelWorkers
}

// Reset zeroes the counters (between benchmark phases).
func (p *Pager) Reset() {
	p.mu.Lock()
	p.bytesRead, p.bytesWritten = 0, 0
	p.pagesSkipped, p.parallelWorkers = 0, 0
	p.segScanned, p.segUnfrozen = 0, 0
	p.zoneSkipped, p.selBatches, p.parallelStriped = 0, 0, 0
	p.sortBatches, p.topnShortCircuits, p.sortedMergeParts = 0, 0, 0
	p.mu.Unlock()
}
