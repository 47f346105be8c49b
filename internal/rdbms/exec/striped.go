package exec

import (
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the batch scan's page loop. The scan reads whole
// pages (storage.HeapChunkIter.ReadPage) and turns each into one batch:
//
//   - a frozen page's columns alias its immutable vectors — zero per-row
//     work for plain columns, one cached materialization for segment
//     columns — with the underlying ColumnSegments attached via
//     RowBatch.Segs so segment-aware operators can skip the materialized
//     datums entirely;
//   - a row-form page (a heap never frozen by ANALYZE, or the write-hot
//     tail of one that was) is transposed column by column into a
//     scan-owned pooled batch.
//
// Either way columns are materialized on demand (fill), so a pushed-down
// filter (selfilter.go) decodes only the columns its conjuncts read until
// the page's selection is known, and a page whose selection empties out is
// dropped before the remaining columns are touched. Survivors are
// published through RowBatch.Sel: frozen-page batches alias immutable page
// storage and must never be compacted, and row-form batches take the same
// path so every consumer sees one batch shape.

// NextBatch implements BatchIterator.
func (s *BatchScanIter) NextBatch() (*RowBatch, error) {
	if s.pageBuf == nil {
		s.pageBuf = make([]storage.Row, storage.PageCapacity)
		s.filled = make([]bool, s.width)
	}
	for {
		pv, ok := s.chunk.ReadPage(s.pageBuf)
		if !ok {
			return nil, nil
		}
		b, err := s.readPage(pv)
		if err != nil || b != nil {
			return b, err
		}
		// Every row of the page was filtered out: read the next one.
	}
}

// readPage turns one page into a batch, or returns (nil, nil) when the
// filter keeps none of its rows.
func (s *BatchScanIter) readPage(pv storage.PageView) (*RowBatch, error) {
	var b *RowBatch
	if pv.Frozen != nil {
		b = s.frozenShell()
		b.n = pv.Frozen.NumRows()
	} else {
		// The transpose buffer is deliberately separate from the frozen
		// shell — fillCol reuses column capacity, which must never
		// overwrite aliased page vectors — and comes from the batch pool
		// so column capacity survives across queries (Close returns it).
		if s.own == nil {
			s.own = GetBatch(s.width)
		}
		b = s.own
		for j := range b.Cols {
			b.Cols[j] = b.Cols[j][:0]
			b.Nulls[j] = b.Nulls[j][:0]
		}
		b.n = len(pv.Rows)
		b.Sel = nil
	}
	s.page, s.cur = pv, b
	for j := range s.filled {
		s.filled[j] = false
	}
	var sel []int32
	if s.sf != nil {
		var err error
		if sel, err = s.filterPage(); err != nil {
			return nil, err
		}
		if sel != nil && len(sel) == 0 {
			return nil, nil
		}
	}
	if err := s.fillNeeded(); err != nil {
		return nil, err
	}
	if fp := pv.Frozen; fp != nil {
		for j := 0; j < s.width; j++ {
			if _, _, seg := fp.Col(j); seg != nil {
				b.Segs[j] = seg
			}
		}
	}
	b.Sel = sel
	if sel != nil {
		s.selBatches++
	}
	return b, nil
}

// fill materializes column j of the current page once: a frozen page
// aliases (materializing and caching) its column vector, a row-form page
// transposes the column into the scan-owned batch.
func (s *BatchScanIter) fill(j int) error {
	if s.filled[j] {
		return nil
	}
	b := s.cur
	if fp := s.page.Frozen; fp != nil {
		vals, nulls, err := fp.ColVals(j)
		if err != nil {
			return err
		}
		b.Cols[j], b.Nulls[j] = vals, NullBitmap(nulls)
	} else {
		b.fillCol(j, s.page.Rows)
	}
	if st := s.selState; st != nil {
		st.view.Cols[j] = b.Cols[j]
	}
	s.filled[j] = true
	return nil
}

// fillNeeded materializes the scan's full column set: NeedCols, or every
// column when the scan is not pruned.
func (s *BatchScanIter) fillNeeded() error {
	if s.NeedCols == nil {
		for j := 0; j < s.width; j++ {
			if err := s.fill(j); err != nil {
				return err
			}
		}
		return nil
	}
	for _, j := range s.NeedCols {
		if err := s.fill(j); err != nil {
			return err
		}
	}
	return nil
}

// frozenShell returns the cleared frozen-page shell batch. It is never
// pooled and never Reset — both would corrupt the aliased page storage.
func (s *BatchScanIter) frozenShell() *RowBatch {
	b := s.shell
	if b == nil {
		b = &RowBatch{
			Cols:  make([][]types.Datum, s.width),
			Nulls: make([]NullBitmap, s.width),
			Segs:  make([]storage.ColumnSegment, s.width),
		}
		s.shell = b
	}
	for j := 0; j < s.width; j++ {
		b.Cols[j] = nil
		b.Nulls[j] = nil
		b.Segs[j] = nil
	}
	b.n = 0
	b.Sel = nil
	return b
}
