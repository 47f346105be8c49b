package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func intHeap(t *testing.T, n int) *storage.Heap {
	t.Helper()
	schema, err := storage.NewSchema(
		storage.Column{Name: "v", Typ: types.Int},
		storage.Column{Name: "s", Typ: types.Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	h := storage.NewHeap(schema, nil)
	for i := 0; i < n; i++ {
		s := types.NewText(fmt.Sprintf("s%d", i%7))
		if i%5 == 0 {
			s = types.NewNull(types.Text)
		}
		if err := h.Insert(row(types.NewInt(int64(i)), s)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// collectBatches drains a BatchIterator into plain rows (copying).
func collectBatches(t *testing.T, it BatchIterator) []storage.Row {
	t.Helper()
	defer it.Close()
	var out []storage.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		if b.Len() == 0 {
			t.Fatal("BatchIterator emitted an empty batch")
		}
		for i := 0; i < b.Len(); i++ {
			// Row is a physical accessor: logical row i lives at Sel[i]
			// when the batch carries a selection vector.
			out = append(out, b.Row(selIdx(b.Sel, i), nil))
		}
	}
}

func rowsEqual(t *testing.T, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: width %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if string(got[i][j].HashKey(nil)) != string(want[i][j].HashKey(nil)) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRowBatchAppendAndNulls(t *testing.T) {
	b := NewRowBatch(2, 4)
	b.AppendRow(row(types.NewInt(1), types.NewNull(types.Text)))
	b.AppendRow(row(types.NewInt(2), types.NewText("x")))
	if b.Len() != 2 || b.Width() != 2 {
		t.Fatalf("len=%d width=%d", b.Len(), b.Width())
	}
	if b.Nulls[0].AnyNull() {
		t.Error("col 0 has no NULLs")
	}
	if !b.Nulls[1].Get(0) || b.Nulls[1].Get(1) {
		t.Error("col 1 bitmap wrong")
	}
	r := b.Row(1, nil)
	if r[0].I != 2 || r[1].S != "x" {
		t.Errorf("Row(1) = %v", r)
	}
	b.Reset()
	if b.Len() != 0 || b.Nulls[1].AnyNull() {
		t.Error("Reset should clear rows and bitmaps")
	}
}

func TestRowBatchSetColRebuildsBitmap(t *testing.T) {
	b := NewRowBatch(1, 4)
	b.SetCol(0, []types.Datum{types.NewInt(1), types.NewNull(types.Int), types.NewInt(3)})
	b.SetLen(3)
	if b.Nulls[0].Get(0) || !b.Nulls[0].Get(1) || b.Nulls[0].Get(2) {
		t.Error("SetCol bitmap wrong")
	}
}

func TestRowBatchAdaptersRoundTrip(t *testing.T) {
	var want []storage.Row
	for i := 0; i < 100; i++ {
		d := types.NewInt(int64(i))
		if i%9 == 0 {
			d = types.NewNull(types.Int)
		}
		want = append(want, row(d, types.NewText(fmt.Sprintf("r%d", i))))
	}
	for _, size := range []int{1, 3, 100, 1000} {
		got, err := Collect(&BatchToRow{In: &RowToBatch{In: sliceIter(want...), Size: size}})
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, got, want)
	}
}

// filterOf compiles an optional scan predicate into the in-scan filter,
// as the planner does.
func filterOf(pred Expr, width int) *SelFilter {
	if pred == nil {
		return nil
	}
	return CompileSelFilter([]Expr{pred}, width, nil, nil)
}

// scanBuild is a PipelineBuild running a bare, optionally filtered scan
// over each partition — what a Gather over a lone scan runs.
func scanBuild(h *storage.Heap, sf *SelFilter) PipelineBuild {
	return func(r storage.PageRange) (BatchIterator, error) {
		return NewBatchScanRange(h, sf, r.Start, r.End), nil
	}
}

func TestBatchScanMatchesRowScan(t *testing.T) {
	h := intHeap(t, 1000)
	filter := &BinExpr{Op: "<", L: col(0, types.Int), R: lit(types.NewInt(333))}
	for _, f := range []Expr{nil, filter} {
		want, err := Collect(NewScan(h, f))
		if err != nil {
			t.Fatal(err)
		}
		got := collectBatches(t, NewBatchScan(h, filterOf(f, 2)))
		rowsEqual(t, got, want)
	}
}

func TestBatchScanSizeHint(t *testing.T) {
	h := intHeap(t, 100)
	if n, exact := NewBatchScan(h, nil).SizeHint(); !exact || n != 100 {
		t.Errorf("unfiltered hint = %d %v", n, exact)
	}
	f := &BinExpr{Op: "=", L: col(0, types.Int), R: lit(types.NewInt(1))}
	if _, exact := NewBatchScan(h, filterOf(f, 2)).SizeHint(); exact {
		t.Error("filtered hint should be inexact")
	}
}

func TestBatchFilterProjectLimitPipeline(t *testing.T) {
	h := intHeap(t, 500)
	pred := &BinExpr{Op: "=",
		L: &BinExpr{Op: "%", L: col(0, types.Int), R: lit(types.NewInt(3))},
		R: lit(types.NewInt(0))}
	proj := []Expr{
		&BinExpr{Op: "*", L: col(0, types.Int), R: lit(types.NewInt(2))},
		col(1, types.Text),
	}
	want, err := Collect(&LimitIter{N: 40, In: &ProjectIter{Exprs: proj,
		In: &FilterIter{Pred: pred, In: NewScan(h, nil)}}})
	if err != nil {
		t.Fatal(err)
	}
	got := collectBatches(t, &BatchLimitIter{N: 40,
		In: &BatchProjectIter{Exprs: proj,
			In: &BatchFilterIter{Pred: pred,
				In: NewBatchScan(h, nil)}}})
	rowsEqual(t, got, want)
}

func TestBatchFilterDoesNotAliasInput(t *testing.T) {
	// The filter's output must survive the producer recycling its batch on
	// the following NextBatch (batch reuse is the common case).
	h := intHeap(t, 300)
	pred := &BinExpr{Op: "<", L: col(0, types.Int), R: lit(types.NewInt(5))}
	f := &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)}
	b1, err := f.NextBatch()
	if err != nil || b1 == nil {
		t.Fatalf("first batch: %v %v", b1, err)
	}
	snapshot := b1.Row(0, nil)
	// Drive the source forward; b1 must keep its values.
	f.In.NextBatch()
	after := b1.Row(0, nil)
	if string(after[0].HashKey(nil)) != string(snapshot[0].HashKey(nil)) {
		t.Errorf("filter output aliased producer batch: %v -> %v", snapshot, after)
	}
	f.Close()
}

func TestBatchHashAggMatchesRowHashAgg(t *testing.T) {
	h := intHeap(t, 400)
	groupBy := []Expr{&BinExpr{Op: "%", L: col(0, types.Int), R: lit(types.NewInt(6))}}
	specs := func() []*AggSpec {
		return []*AggSpec{
			{Kind: AggCountStar},
			{Kind: AggCount, Arg: col(1, types.Text)},
			{Kind: AggSum, Arg: col(0, types.Int)},
			{Kind: AggMin, Arg: col(0, types.Int)},
			{Kind: AggMax, Arg: col(0, types.Int)},
			{Kind: AggCount, Arg: col(1, types.Text), Distinct: true},
		}
	}
	want, err := Collect(&HashAggIter{In: NewScan(h, nil), GroupBy: groupBy, Aggs: specs()})
	if err != nil {
		t.Fatal(err)
	}
	got := collectBatches(t, &BatchHashAggIter{
		In: NewBatchScan(h, nil), GroupBy: groupBy, Aggs: specs()})
	// Both aggregates order groups by encoded key, so ordered compare works.
	rowsEqual(t, got, want)
	// Scalar aggregate over empty input still yields one row.
	empty := intHeap(t, 0)
	got = collectBatches(t, &BatchHashAggIter{
		In: NewBatchScan(empty, nil), Aggs: []*AggSpec{{Kind: AggCountStar}}})
	if len(got) != 1 || got[0][0].I != 0 {
		t.Errorf("scalar agg over empty = %v", got)
	}
}

func TestParallelScanMatchesSequential(t *testing.T) {
	h := intHeap(t, 2000)
	filter := &BinExpr{Op: ">=", L: col(0, types.Int), R: lit(types.NewInt(100))}
	for _, f := range []Expr{nil, filter} {
		want, err := Collect(NewScan(h, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 9} {
			got := collectBatches(t, NewParallelPipeline(h.Partitions(workers), scanBuild(h, filterOf(f, 2))))
			rowsEqual(t, got, want)
		}
	}
}

func TestParallelScanEarlyClose(t *testing.T) {
	h := intHeap(t, 3000)
	for i := 0; i < 20; i++ { // stress the shutdown path
		it := NewParallelPipeline(h.Partitions(4), scanBuild(h, nil))
		b, err := it.NextBatch()
		if err != nil || b == nil {
			t.Fatalf("first batch: %v %v", b, err)
		}
		it.Close()
		it.Close() // idempotent
	}
}

// TestParallelScanBytesReadAndHint checks the partition scans a parallel
// pipeline runs: together they charge exactly the heap's bytes, and an
// exact size hint is the rows the scan yields — a partition must not
// report the whole table's count, which a sorted-merge gather would use to
// pre-size every partition's sort buffers.
func TestParallelScanBytesReadAndHint(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	h, pager := heapOf(t, colTypes, randBatchRows(rand.New(rand.NewSource(5)), colTypes, 2000))
	if rows := collectBatches(t, NewParallelPipeline(h.Partitions(4), scanBuild(h, nil))); len(rows) != 2000 {
		t.Fatalf("parallel rows = %d", len(rows))
	}
	if read, _ := pager.Stats(); read != h.SizeBytes() {
		t.Errorf("partitions charged %d bytes, heap size %d", read, h.SizeBytes())
	}
	whole := storage.PageRange{Start: 0, End: h.NumPages()}
	for _, r := range append(h.Partitions(4), whole) {
		s := NewBatchScanRange(h, nil, r.Start, r.End)
		n, exact := s.SizeHint()
		got := int64(len(collectBatches(t, s)))
		if exact && n != got {
			t.Errorf("pages [%d,%d): exact hint %d, scan yields %d rows", r.Start, r.End, n, got)
		}
		if r == whole && !exact {
			t.Error("a whole-heap unfiltered scan should hint exactly")
		}
	}
}

func TestCollectUsesSizeHint(t *testing.T) {
	h := intHeap(t, 257)
	rows, err := Collect(NewScan(h, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 257 {
		t.Fatalf("rows = %d", len(rows))
	}
	// LimitIter caps the hint.
	l := &LimitIter{N: 10, In: NewScan(h, nil)}
	if n, exact := l.SizeHint(); !exact || n != 10 {
		t.Errorf("limit hint = %d %v", n, exact)
	}
}

func TestScanCloseFlushesPagerOnEarlyStop(t *testing.T) {
	p := storage.NewPager()
	schema, _ := storage.NewSchema(storage.Column{Name: "v", Typ: types.Int})
	h := storage.NewHeap(schema, p)
	for i := 0; i < 1000; i++ {
		h.Insert(row(types.NewInt(int64(i))))
	}
	p.Reset()
	// A LIMIT that stops a scan early must still charge the pages it
	// touched when the iterator is closed.
	it := &LimitIter{N: 5, In: NewScan(h, nil)}
	if _, err := Collect(it); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Stats(); r <= 0 || r >= h.SizeBytes() {
		t.Errorf("early-stopped scan charged %d of %d", r, h.SizeBytes())
	}
}

func TestBatchScanNeedCols(t *testing.T) {
	h := intHeap(t, 300)
	s := NewBatchScan(h, nil)
	s.NeedCols = []int{1} // only the string column is referenced
	defer s.Close()
	n := 0
	for {
		b, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if len(b.Cols[0]) != 0 {
			t.Fatalf("pruned column materialized %d values", len(b.Cols[0]))
		}
		if len(b.Cols[1]) != b.Len() {
			t.Fatalf("needed column has %d of %d values", len(b.Cols[1]), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i, nil)
			// Row() must zero-fill pruned cells, never index past them.
			if r[0].Typ != types.Unknown || !r[0].IsNull() {
				t.Fatalf("row %d pruned cell = %v", i, r[0])
			}
			n++
		}
	}
	if n != 300 {
		t.Fatalf("scanned %d rows, want 300", n)
	}
}

func TestCollectProjectedScan(t *testing.T) {
	h := intHeap(t, 500)
	// Delete a scattering of rows so the fused collector sees holes.
	var ids []storage.RowID
	h.Scan(func(id storage.RowID, r storage.Row) bool {
		if r[0].I%9 == 0 {
			ids = append(ids, id)
		}
		return true
	})
	for _, id := range ids {
		if _, err := h.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	cols := []int{1, 0, 1} // reorder + duplicate
	for _, limit := range []int64{-1, 0, 5, 137, h.NumRows(), h.NumRows() + 99} {
		want := func() []storage.Row {
			var out []storage.Row
			h.Scan(func(_ storage.RowID, r storage.Row) bool {
				if limit >= 0 && int64(len(out)) >= limit {
					return false
				}
				out = append(out, storage.Row{r[1], r[0], r[1]})
				return true
			})
			return out
		}()
		got, err := CollectProjectedScan(h, cols, limit, 64)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		rowsEqual(t, got, want)
	}
}

func TestCollectProjectedScanFlushesPager(t *testing.T) {
	p := storage.NewPager()
	schema, _ := storage.NewSchema(storage.Column{Name: "v", Typ: types.Int})
	h := storage.NewHeap(schema, p)
	for i := 0; i < 2000; i++ {
		h.Insert(row(types.NewInt(int64(i))))
	}
	p.Reset()
	rows, err := CollectProjectedScan(h, []int{0}, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if r, _ := p.Stats(); r <= 0 || r >= h.SizeBytes() {
		t.Errorf("early-stopped fused scan charged %d of %d bytes", r, h.SizeBytes())
	}
}
