package exec

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// heapOf builds a pager-backed heap holding rows over colTypes.
func heapOf(t *testing.T, colTypes []types.Type, rows []storage.Row) (*storage.Heap, *storage.Pager) {
	t.Helper()
	cols := make([]storage.Column, len(colTypes))
	for i, tp := range colTypes {
		cols[i] = storage.Column{Name: string(rune('a' + i)), Typ: tp}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	p := storage.NewPager()
	h := storage.NewHeap(schema, p)
	for _, r := range rows {
		if err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	p.Reset()
	return h, p
}

// chainBuild returns a PipelineBuild running scan→filter→project over one
// partition, mirroring GatherNode.buildPartition.
func chainBuild(h *storage.Heap, pred Expr, projs []Expr) PipelineBuild {
	return func(r storage.PageRange) (BatchIterator, error) {
		var cur BatchIterator = NewBatchScanRange(h, nil, r.Start, r.End)
		if pred != nil {
			cur = &BatchFilterIter{In: cur, Pred: pred}
		}
		if projs != nil {
			cur = &BatchProjectIter{In: cur, Exprs: projs}
		}
		return cur, nil
	}
}

// TestPropertyParallelMatchesSerial is the three-way differential test
// backing the morsel-driven pipelines: over random schemas, data,
// predicates, and projections, the row pipeline, the serial batch
// pipeline, and the parallel pipeline (random worker counts) must produce
// identical output — same rows, same order (the partition merge preserves
// heap order exactly).
func TestPropertyParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(3); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		rows := randBatchRows(r, colTypes, r.Intn(300))
		h, _ := heapOf(t, colTypes, rows)
		pred := randPred(r, colTypes, 3, true)
		projs := make([]Expr, 1+r.Intn(3))
		for i := range projs {
			if r.Intn(3) == 0 {
				projs[i] = randTextExpr(r, colTypes, 2)
			} else {
				projs[i] = randNumExpr(r, colTypes, 2, true)
			}
		}

		want, err := Collect(&ProjectIter{Exprs: projs,
			In: &FilterIter{Pred: pred, In: NewScan(h, nil)}})
		if err != nil {
			t.Fatalf("seed %d: row pipeline: %v", seed, err)
		}
		batch := collectBatches(t, &BatchProjectIter{Exprs: projs,
			In: &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)}})
		rowsEqual(t, batch, want)
		for _, workers := range []int{2, 3, 5} {
			par := collectBatches(t, NewParallelPipeline(
				h.Partitions(workers), chainBuild(h, pred, projs)))
			rowsEqual(t, par, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParallelAggMatchesSerial checks two-phase parallel hash
// aggregation — GROUP BY with COUNT/SUM/AVG/MIN/MAX plus the grouped
// DISTINCT case (no aggregates) — against the row and serial batch
// aggregates.
func TestPropertyParallelAggMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Int, types.Float, types.Text}
		rows := randBatchRows(r, colTypes, r.Intn(400))
		h, _ := heapOf(t, colTypes, rows)
		groupBy := []Expr{col(0, types.Int)}
		if r.Intn(2) == 0 {
			groupBy = append(groupBy, col(3, types.Text))
		}
		specs := func() []*AggSpec {
			return []*AggSpec{
				{Kind: AggCountStar},
				{Kind: AggCount, Arg: col(1, types.Int)},
				{Kind: AggSum, Arg: col(1, types.Int)},
				{Kind: AggAvg, Arg: col(2, types.Float)},
				{Kind: AggMin, Arg: col(2, types.Float)},
				{Kind: AggMax, Arg: col(3, types.Text)},
			}
		}
		size := 1 + r.Intn(40)

		want, err := Collect(&HashAggIter{In: NewScan(h, nil), GroupBy: groupBy, Aggs: specs()})
		if err != nil {
			t.Fatal(err)
		}
		batch := collectBatches(t, &BatchHashAggIter{
			In: NewBatchScan(h, nil), GroupBy: groupBy, Aggs: specs()})
		for _, workers := range []int{2, 4} {
			par := collectBatches(t, NewParallelHashAgg(
				h.Partitions(workers), chainBuild(h, nil, nil),
				groupBy, specs(), false, size))
			// Batch and parallel both emit in encoded-key order.
			rowsEqual(t, par, batch)
			if canonical(par) != canonical(want) {
				t.Fatalf("seed %d workers %d: parallel disagrees with row agg", seed, workers)
			}
		}

		// Grouped DISTINCT: group-by columns, no aggregate states.
		wantD, err := Collect(&HashAggIter{In: NewScan(h, nil), GroupBy: groupBy})
		if err != nil {
			t.Fatal(err)
		}
		parD := collectBatches(t, NewParallelHashAgg(
			h.Partitions(3), chainBuild(h, nil, nil), groupBy, nil, false, size))
		if canonical(parD) != canonical(wantD) {
			t.Fatalf("seed %d: parallel DISTINCT disagrees", seed)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAggMergeRejectsDistinct pins the planner contract: DISTINCT
// aggregates cannot be merged across partitions (per-worker distinct sets
// would double-count), so merge() must refuse them.
func TestAggMergeRejectsDistinct(t *testing.T) {
	spec := &AggSpec{Kind: AggCount, Arg: col(0, types.Int), Distinct: true}
	a, b := newAggState(spec), newAggState(spec)
	if err := a.merge(b); err == nil {
		t.Fatal("merge of DISTINCT aggregate states unexpectedly succeeded")
	}
}

// TestPropertyParallelJoinMatchesSerial checks the partitioned-probe hash
// join against the serial hash join: same build side, probe side scanned
// in parallel partitions, identical output order.
func TestPropertyParallelJoinMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		rows := randBatchRows(r, colTypes, r.Intn(300))
		h, _ := heapOf(t, colTypes, rows)
		build := make([]storage.Row, 1+r.Intn(30))
		for i := range build {
			key := types.NewInt(int64(r.Intn(9) - 4))
			if r.Intn(8) == 0 {
				key = types.NewNull(types.Int)
			}
			build[i] = storage.Row{key, types.NewInt(int64(i))}
		}
		probeKeys := []Expr{col(0, types.Int)}
		buildKeys := []Expr{col(0, types.Int)}
		var residual Expr
		if r.Intn(2) == 0 {
			residual = &BinExpr{Op: "<>", L: col(1, types.Text), R: lit(types.NewText("b"))}
		}
		size := 1 + r.Intn(40)

		want, err := Collect(&HashJoinIter{
			Probe: NewScan(h, nil), Build: sliceIter(build...),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			par := collectBatches(t, NewParallelHashJoin(
				h.Partitions(workers), chainBuild(h, nil, nil),
				sliceIter(build...), probeKeys, buildKeys, residual,
				size, len(colTypes)+2, 2))
			rowsEqual(t, par, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// vecSegment is a test ColumnSegment: a copied datum vector standing in
// for the upper layer's striped record segments.
type vecSegment struct {
	vals []types.Datum
	ids  []uint32
}

func (s *vecSegment) NumRows() int      { return len(s.vals) }
func (s *vecSegment) AttrIDs() []uint32 { return s.ids }
func (s *vecSegment) Values(dst []types.Datum) error {
	copy(dst, s.vals)
	return nil
}

// freezeCols installs a segmenter striping the listed columns and freezes
// every full page, returning how many froze.
func freezeCols(h *storage.Heap, stripe map[int]bool) int {
	h.SetColumnSegmenter(func(col int, vals []types.Datum) (storage.ColumnSegment, error) {
		if !stripe[col] {
			return nil, nil
		}
		cp := make([]types.Datum, len(vals))
		copy(cp, vals)
		return &vecSegment{vals: cp, ids: []uint32{uint32(col)}}, nil
	})
	return h.FreezeColdPages()
}

// selChainBuild mirrors GatherNode.buildPartition over a scan whose
// predicate is compiled into the in-scan selection filter: the SelFilter
// is shared across partitions, per-partition state instantiates on the
// worker goroutine.
func selChainBuild(h *storage.Heap, projs []Expr, sf *SelFilter) PipelineBuild {
	return func(rg storage.PageRange) (BatchIterator, error) {
		var cur BatchIterator = NewBatchScanRange(h, sf, rg.Start, rg.End)
		if projs != nil {
			cur = &BatchProjectIter{In: cur, Exprs: projs}
		}
		return cur, nil
	}
}

// TestPropertyStripedMatchesRow extends the three-way differential test
// across every page mix the batch scan reads: the row pipeline, the serial
// batch pipeline (hoisted filter and in-scan selection filter), and the
// parallel pipelines must agree over a heap never frozen, the same heap
// with its full pages frozen into column segments, with a row-form tail
// appended, and after an Update un-freezes a page mid-table. A predicate
// that errors on a row-form page must surface the row engine's error.
func TestPropertyStripedMatchesRow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(3); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		rows := randBatchRows(r, colTypes, 128+r.Intn(400))
		h, _ := heapOf(t, colTypes, rows)

		pred := randPred(r, colTypes, 3, true)
		projs := make([]Expr, 1+r.Intn(3))
		for i := range projs {
			if r.Intn(3) == 0 {
				projs[i] = randTextExpr(r, colTypes, 2)
			} else {
				projs[i] = randNumExpr(r, colTypes, 2, true)
			}
		}
		sf := CompileSelFilter([]Expr{pred}, len(colTypes), nil, nil)

		check := func(phase string) {
			want, err := Collect(&ProjectIter{Exprs: projs,
				In: &FilterIter{Pred: pred, In: NewScan(h, nil)}})
			if err != nil {
				t.Fatalf("seed %d %s: row pipeline: %v", seed, phase, err)
			}
			// A hoisted filter above the scan remains a supported operator
			// shape (residual predicates land there).
			hoisted := collectBatches(t, &BatchProjectIter{Exprs: projs,
				In: &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)}})
			rowsEqual(t, hoisted, want)
			// The planner path proper: predicates compiled into the in-scan
			// selection filter, survivors carried by a selection vector.
			selLeg := collectBatches(t, &BatchProjectIter{Exprs: projs, In: NewBatchScan(h, sf)})
			rowsEqual(t, selLeg, want)
			for _, workers := range []int{2, 3} {
				par := collectBatches(t, NewParallelPipeline(
					h.Partitions(workers), chainBuild(h, pred, projs)))
				rowsEqual(t, par, want)
				selPar := collectBatches(t, NewParallelPipeline(
					h.Partitions(workers), selChainBuild(h, projs, sf)))
				rowsEqual(t, selPar, want)
			}
		}
		check("never frozen")

		stripe := map[int]bool{r.Intn(len(colTypes)): true}
		if r.Intn(2) == 0 {
			stripe[0] = true
		}
		frozen := freezeCols(h, stripe)
		if frozen == 0 {
			t.Fatalf("seed %d: no pages froze", seed)
		}
		check("frozen")

		// Append a row-form tail behind the frozen pages. Its last row
		// carries a first-column value the random rows never hold, so the
		// predicate below divides by zero on that row-form page alone.
		tail := randBatchRows(r, colTypes, 1+r.Intn(200))
		tail[len(tail)-1][0] = types.NewInt(99)
		for _, row := range tail {
			if err := h.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		if h.NumFrozenPages() != frozen {
			t.Fatalf("seed %d: insert changed frozen pages %d -> %d", seed, frozen, h.NumFrozenPages())
		}
		check("row-form tail")

		errPred := &BinExpr{Op: ">", R: lit(types.NewInt(0)),
			L: &BinExpr{Op: "/", L: lit(types.NewInt(1)),
				R: &BinExpr{Op: "-", L: col(0, types.Int), R: lit(types.NewInt(99))}}}
		_, wantErr := Collect(&FilterIter{Pred: errPred, In: NewScan(h, nil)})
		if wantErr == nil {
			t.Fatalf("seed %d: row engine did not fail on the ÷0 row", seed)
		}
		errSF := CompileSelFilter([]Expr{errPred}, len(colTypes), nil, nil)
		for leg, it := range map[string]BatchIterator{
			"serial":   NewBatchScan(h, errSF),
			"parallel": NewParallelPipeline(h.Partitions(3), selChainBuild(h, nil, errSF)),
		} {
			if _, err := Collect(&BatchToRow{In: it}); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("seed %d %s: in-scan filter error %v, row engine %v", seed, leg, err, wantErr)
			}
		}

		// Update a row on a mid-table frozen page: it un-freezes back to
		// row form and the scan now crosses a frozen/row mix.
		id := storage.RowID{Page: frozen / 2, Slot: 3}
		if _, err := h.Update(id, rows[len(rows)-1]); err != nil {
			t.Fatalf("seed %d: un-freezing update: %v", seed, err)
		}
		if h.NumFrozenPages() != frozen-1 {
			t.Fatalf("seed %d: update left %d frozen pages, want %d",
				seed, h.NumFrozenPages(), frozen-1)
		}
		check("mixed")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStripedSelConsumers drives selection-carrying batches from
// in-scan sel filters through the operators that change or consume
// cardinality — LIMIT, GROUP BY aggregation, and hash joins — comparing
// serial and parallel striped legs against the row pipeline, on all-frozen
// and mixed frozen/row-form heaps.
func TestPropertyStripedSelConsumers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text, types.Float}
		rows := randBatchRows(r, colTypes, 200+r.Intn(300))
		h, _ := heapOf(t, colTypes, rows)
		stripe := map[int]bool{0: true}
		if r.Intn(2) == 0 {
			stripe[2] = true
		}
		frozen := freezeCols(h, stripe)
		if frozen == 0 {
			t.Fatalf("seed %d: no pages froze", seed)
		}
		pred := randPred(r, colTypes, 2, true)
		sf := CompileSelFilter([]Expr{pred}, len(colTypes), nil, nil)
		size := 1 + r.Intn(40)
		selScan := func() *BatchScanIter { return NewBatchScan(h, sf) }

		check := func(phase string) {
			// LIMIT: truncateBatch trims a selection-carrying batch by
			// shortening Sel. Serial striped scans emit in heap order and
			// the parallel merge preserves partition order, so both legs
			// see the same prefix as the row pipeline.
			n := int64(1 + r.Intn(50))
			wantL, err := Collect(&LimitIter{N: n,
				In: &FilterIter{Pred: pred, In: NewScan(h, nil)}})
			if err != nil {
				t.Fatalf("seed %d %s: row limit: %v", seed, phase, err)
			}
			gotL := collectBatches(t, &BatchLimitIter{N: n, In: selScan()})
			rowsEqual(t, gotL, wantL)
			gotLP := collectBatches(t, &BatchLimitIter{N: n,
				In: NewParallelPipeline(h.Partitions(3), selChainBuild(h, nil, sf))})
			rowsEqual(t, gotLP, wantL)

			// GROUP BY over sel batches, serial and two-phase parallel.
			groupBy := []Expr{col(0, types.Int)}
			aggs := func() []*AggSpec {
				return []*AggSpec{
					{Kind: AggCountStar},
					{Kind: AggSum, Arg: col(0, types.Int)},
					{Kind: AggMax, Arg: col(1, types.Text)},
				}
			}
			wantA, err := Collect(&HashAggIter{GroupBy: groupBy, Aggs: aggs(),
				In: &FilterIter{Pred: pred, In: NewScan(h, nil)}})
			if err != nil {
				t.Fatalf("seed %d %s: row agg: %v", seed, phase, err)
			}
			gotA := collectBatches(t, &BatchHashAggIter{
				In: selScan(), GroupBy: groupBy, Aggs: aggs()})
			if canonical(gotA) != canonical(wantA) {
				t.Fatalf("seed %d %s: striped sel agg disagrees with row agg", seed, phase)
			}
			parA := collectBatches(t, NewParallelHashAgg(
				h.Partitions(3), selChainBuild(h, nil, sf),
				groupBy, aggs(), false, size))
			if canonical(parA) != canonical(wantA) {
				t.Fatalf("seed %d %s: parallel striped sel agg disagrees", seed, phase)
			}

			// Hash joins probing from sel batches, serial and partitioned.
			build := make([]storage.Row, 1+r.Intn(20))
			for i := range build {
				build[i] = storage.Row{
					types.NewInt(int64(r.Intn(9) - 4)), types.NewInt(int64(i))}
			}
			keys := []Expr{col(0, types.Int)}
			wantJ, err := Collect(&HashJoinIter{
				Probe: &FilterIter{Pred: pred, In: NewScan(h, nil)},
				Build: sliceIter(build...), ProbeKeys: keys, BuildKeys: keys})
			if err != nil {
				t.Fatalf("seed %d %s: row join: %v", seed, phase, err)
			}
			gotJ, err := Collect(&HashJoinIter{
				Probe: &BatchToRow{In: selScan()},
				Build: sliceIter(build...), ProbeKeys: keys, BuildKeys: keys})
			if err != nil {
				t.Fatalf("seed %d %s: striped sel join: %v", seed, phase, err)
			}
			rowsEqual(t, gotJ, wantJ)
			parJ := collectBatches(t, NewParallelHashJoin(
				h.Partitions(2), selChainBuild(h, nil, sf),
				sliceIter(build...), keys, keys, nil, size, len(colTypes)+2, 2))
			rowsEqual(t, parJ, wantJ)
		}
		check("frozen")

		id := storage.RowID{Page: frozen / 2, Slot: 5}
		if _, err := h.Update(id, rows[0]); err != nil {
			t.Fatalf("seed %d: un-freezing update: %v", seed, err)
		}
		check("mixed")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestStripedSegKernelFastPath pins the segment-aware extraction contract:
// frozen pages reach the SegKernel with the page's segment and full row
// count, row-tail pages fall back to the row Kernel, and a SegKernel that
// declines (handled=false) falls back too.
func TestStripedSegKernelFastPath(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	rows := randBatchRows(rand.New(rand.NewSource(3)), colTypes, 300)
	h, _ := heapOf(t, colTypes, rows)
	if n := freezeCols(h, map[int]bool{1: true}); n != 2 {
		t.Fatalf("frozen pages = %d, want 2", n)
	}

	kernel := func(data []types.Datum, out [][]types.Datum) error {
		for i := range data {
			out[0][i] = types.NewInt(int64(i))
		}
		return nil
	}
	segCalls, segDeclined := 0, false
	segKernel := func(seg storage.ColumnSegment, out [][]types.Datum) (bool, error) {
		if _, ok := seg.(*vecSegment); !ok {
			t.Fatalf("SegKernel saw %T", seg)
		}
		if segDeclined {
			return false, nil
		}
		segCalls++
		for i := 0; i < seg.NumRows(); i++ {
			out[0][i] = types.NewInt(int64(i))
		}
		return true, nil
	}
	run := func(segK SegExtractKernel) []storage.Row {
		return collectBatches(t, &BatchMultiExtractIter{
			In: NewBatchScan(h, nil), DataIdx: 1, K: 1, Kernel: kernel, SegKernel: segK})
	}

	want := run(nil) // row Kernel everywhere
	got := run(segKernel)
	rowsEqual(t, got, want)
	if segCalls != 2 {
		t.Errorf("SegKernel handled %d pages, want 2 (frozen pages only)", segCalls)
	}
	segDeclined = true
	rowsEqual(t, run(segKernel), want) // declining kernel falls back
}

// waitGoroutines polls until the goroutine count drops back to base
// (worker shutdown is asynchronous after Close returns the merge side).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
}

// TestParallelPipelinesReleaseOnEarlyClose abandons every parallel
// iterator mid-stream and checks (a) all worker goroutines exit and (b)
// the pager is charged no more than one full scan of the heap — i.e.
// partition scans flushed their partial accounting instead of dropping or
// double-charging it.
func TestParallelPipelinesReleaseOnEarlyClose(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	r := rand.New(rand.NewSource(11))
	rows := randBatchRows(r, colTypes, 4000)
	h, pager := heapOf(t, colTypes, rows)
	full := h.SizeBytes()
	groupBy := []Expr{col(0, types.Int)}
	aggs := []*AggSpec{{Kind: AggCountStar}}
	build := []storage.Row{{types.NewInt(1), types.NewInt(2)}}

	mk := map[string]func() BatchIterator{
		"pipeline": func() BatchIterator {
			return NewParallelPipeline(h.Partitions(4), chainBuild(h, nil, nil))
		},
		"agg": func() BatchIterator {
			return NewParallelHashAgg(h.Partitions(4), chainBuild(h, nil, nil),
				groupBy, aggs, false, 32)
		},
		"join": func() BatchIterator {
			return NewParallelHashJoin(h.Partitions(4), chainBuild(h, nil, nil),
				sliceIter(build...), []Expr{col(0, types.Int)}, []Expr{col(0, types.Int)},
				nil, 32, 4, 2)
		},
	}
	for name, make := range mk {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			pager.Reset()
			it := make()
			if _, err := it.NextBatch(); err != nil {
				t.Fatalf("%s: first batch: %v", name, err)
			}
			it.Close()
			it.Close() // idempotent
			read, _ := pager.Stats()
			if read > full {
				t.Fatalf("%s: pager charged %d bytes for early close, heap is %d", name, read, full)
			}
		}
		waitGoroutines(t, base)
	}

	// Close before any NextBatch: workers may not even have started.
	for name, make := range mk {
		base := runtime.NumGoroutine()
		it := make()
		it.Close()
		waitGoroutines(t, base)
		_ = name
	}
}
