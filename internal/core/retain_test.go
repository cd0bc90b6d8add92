package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"axml/internal/syntax"
	"axml/internal/tree"
)

// TestDroppedSystemRetainsNothing: a system that indexed 20 000 distinct
// data values and bound each in a match leaves nothing of them behind
// once it is dropped. Values come from the unbounded domain V of Definition
// 2.1, so no process-wide table may keep them. The values carry a
// per-run tag, so a -count=N rerun meets none of an earlier run's.
func TestDroppedSystemRetainsNothing(t *testing.T) {
	const groups, items = 200, 100
	tag := time.Now().UnixNano()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	func() {
		root := tree.NewLabel("root", tree.NewFunc("f"))
		for g := 0; g < groups; g++ {
			grp := tree.NewLabel("group")
			for i := 0; i < items; i++ {
				grp.Add(tree.NewLabel("item", tree.NewValue(fmt.Sprintf("v%d-%d-%d", tag, g, i))))
			}
			root.Add(grp)
		}
		s := NewSystem()
		if err := s.AddDocument(tree.NewDocument("d", root)); err != nil {
			t.Fatal(err)
		}
		q := syntax.MustParseQuery(`seen :- d/root{group{item{$v}}}`)
		q.Name = "f"
		if err := s.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if res := s.Run(RunOptions{Parallelism: 1}); !res.Terminated || res.Err != nil {
			t.Fatalf("run: terminated=%v err=%v", res.Terminated, res.Err)
		}
		if got := len(s.Document("d").Root.Children); got != 1+groups+1 {
			t.Fatalf("root has %d children, want %d", got, 1+groups+1)
		}
	}()

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew by %d bytes", grew)
	if grew >= 256<<10 {
		t.Fatalf("heap grew by %d bytes after the system was dropped, want < %d", grew, 256<<10)
	}
}
