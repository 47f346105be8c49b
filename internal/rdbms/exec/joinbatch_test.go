package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestPropertyBatchJoinMatchesRowJoin checks the adapter-free batch hash
// join against the row-at-a-time HashJoinIter: same build side (scanned as
// batches vs rows), same probe stream, identical output order, NULL keys
// dropped on both sides, with and without a residual predicate.
func TestPropertyBatchJoinMatchesRowJoin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		rows := randBatchRows(r, colTypes, r.Intn(300))
		h, _ := heapOf(t, colTypes, rows)
		buildTypes := []types.Type{types.Int, types.Text, types.Float}
		buildRows := randBatchRows(r, buildTypes, r.Intn(40))
		bh, _ := heapOf(t, buildTypes, buildRows)
		probeKeys := []Expr{col(0, types.Int)}
		buildKeys := []Expr{col(0, types.Int)}
		var residual Expr
		if r.Intn(2) == 0 {
			residual = &BinExpr{Op: "<>", L: col(1, types.Text), R: lit(types.NewText("c"))}
		}

		want, err := Collect(&HashJoinIter{
			Probe: NewScan(h, nil), Build: NewScan(bh, nil),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
		})
		if err != nil {
			t.Fatalf("seed %d: row join: %v", seed, err)
		}

		size := 1 + r.Intn(40)
		got := collectBatches(t, &BatchHashJoinIter{
			Probe: NewBatchScan(h, nil), Build: NewBatchScan(bh, nil),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
			BuildWidth: len(buildTypes), Size: size,
		})
		rowsEqual(t, got, want)

		// A filtered probe side exercises the selection-vector path through
		// the batch probe loop.
		pred := randPred(r, colTypes, 2, true)
		wantF, err := Collect(&HashJoinIter{
			Probe: &FilterIter{Pred: pred, In: NewScan(h, nil)}, Build: NewScan(bh, nil),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
		})
		if err != nil {
			t.Fatalf("seed %d: row join (filtered): %v", seed, err)
		}
		gotF := collectBatches(t, &BatchHashJoinIter{
			Probe:     &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)},
			Build:     NewBatchScan(bh, nil),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
			BuildWidth: len(buildTypes), Size: size,
		})
		rowsEqual(t, gotF, wantF)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBatchJoinClosesInputs pins the Close contract: both inputs are closed
// exactly once even when the consumer abandons the join before the build
// side has been drained, and double Close is safe.
func TestBatchJoinClosesInputs(t *testing.T) {
	probe := &closeCountIter{}
	build := &closeCountIter{}
	j := &BatchHashJoinIter{
		Probe: probe, Build: build,
		ProbeKeys: []Expr{col(0, types.Int)}, BuildKeys: []Expr{col(0, types.Int)},
		BuildWidth: 1, Size: 8,
	}
	j.Close()
	j.Close()
	if probe.closed == 0 || build.closed == 0 {
		t.Fatalf("inputs not closed: probe=%d build=%d", probe.closed, build.closed)
	}
}

// closeCountIter is an empty BatchIterator that counts Close calls.
type closeCountIter struct{ closed int }

func (c *closeCountIter) NextBatch() (*RowBatch, error) { return nil, nil }
func (c *closeCountIter) Close()                        { c.closed++ }
