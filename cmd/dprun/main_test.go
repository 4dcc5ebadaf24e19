package main

import (
	"slices"
	"testing"
)

// TestSortUniqueRows: -unique prints count descending, and rows with equal
// counts in ascending context order, whatever order the map yielded them.
func TestSortUniqueRows(t *testing.T) {
	want := []uniqueRow{
		{count: 9, text: "A.main > B.f"},
		{count: 3, text: "A.main"},
		{count: 3, text: "A.main > B.g"},
		{count: 3, text: "A.main > C.h"},
		{count: 1, text: "<undecodable: corrupt>"},
	}
	for _, perm := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 3, 4, 1}, {3, 1, 4, 2, 0}} {
		rows := make([]uniqueRow, len(perm))
		for i, p := range perm {
			rows[i] = want[p]
		}
		sortUniqueRows(rows)
		if !slices.Equal(rows, want) {
			t.Errorf("input order %v sorted to %v, want %v", perm, rows, want)
		}
	}
}
