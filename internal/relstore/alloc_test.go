package relstore

import (
	"context"
	"fmt"
	"testing"
)

// TestWriteAllocs is the allocation gate on the store's write path: an
// Update and an InsertCtx on a memory store whose table has two indexes,
// each pinned at its exact count. Either call allocates the store's copy
// of the row and one posting string per index, which the index's tree
// holds as it is; the trees' node splits come on top, amortized. To
// re-baseline, edit the counts.
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	const (
		rows         = 10000
		updateAllocs = 4
		insertAllocs = 3
	)
	ctx := context.Background()
	s := NewMemory()
	schema := Schema{
		Table: "versions",
		Columns: []Column{
			{Name: "id", Kind: KindString},
			{Name: "model", Kind: KindString},
			{Name: "epoch", Kind: KindInt},
		},
		Key:     "id",
		Indexes: []string{"model", "epoch"},
	}
	if err := s.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	version := func(i, epoch int) Row {
		return Row{
			"id":    String(fmt.Sprintf("version-%08d", i)),
			"model": String(fmt.Sprintf("model-%04d", i%500)),
			"epoch": Int(int64(epoch)),
		}
	}
	for i := 0; i < rows; i++ {
		if err := s.InsertCtx(ctx, "versions", version(i, i)); err != nil {
			t.Fatal(err)
		}
	}

	// One row's epoch moves back and forth, so every update rewrites a
	// posting of each index and the table keeps its size.
	flip := [2]Row{version(rows/2, -1), version(rows/2, rows/2)}
	n := 0
	update := testing.AllocsPerRun(200, func() {
		if err := s.Update(ctx, "versions", flip[n%2]); err != nil {
			t.Fatal(err)
		}
		n++
	})
	fresh := make([]Row, 201) // AllocsPerRun calls f once more than runs
	for i := range fresh {
		fresh[i] = version(rows+i, rows+i)
	}
	n = 0
	insert := testing.AllocsPerRun(200, func() {
		if err := s.InsertCtx(ctx, "versions", fresh[n]); err != nil {
			t.Fatal(err)
		}
		n++
	})
	t.Logf("allocs per call: Update %v, InsertCtx %v", update, insert)
	if update != updateAllocs || insert != insertAllocs {
		t.Fatalf("allocs per call: Update %v, InsertCtx %v; want %d and %d", update, insert, updateAllocs, insertAllocs)
	}
}
