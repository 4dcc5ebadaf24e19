package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"deltapath"
)

// TestPartialKeepsGoingPastUnreadableRecord: under -partial a record whose
// payload is garbage prints as "..." and counts as unreadable, and every
// record after it still decodes, with -unique too. Without -partial the same
// record ends the run, and a broken frame ends it in both modes.
func TestPartialKeepsGoingPastUnreadableRecord(t *testing.T) {
	src, err := os.ReadFile("../../testdata/shapes.mv")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := deltapath.ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	an, err := deltapath.Analyze(prog, deltapath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := an.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	// The log dprun -record writes: a 4-byte little-endian length, then
	// the record.
	var recs [][]byte
	if _, err := sess.Run(func(c deltapath.Context) {
		if rec, err := c.MarshalBinary(); err == nil {
			recs = append(recs, rec)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("shapes.mv recorded %d contexts, want at least 3", len(recs))
	}
	bad := len(recs) / 2
	var log bytes.Buffer
	for i, rec := range recs {
		if i == bad {
			rec = bytes.Repeat([]byte{0xff}, len(rec))
		}
		log.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(rec))))
		log.Write(rec)
	}

	var out bytes.Buffer
	summary, err := decodeLog(bytes.NewReader(log.Bytes()), &out, an, false, true)
	if err != nil {
		t.Fatalf("-partial stopped: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("%d output lines for %d records", len(lines), len(recs))
	}
	for i, rec := range recs {
		want := "..."
		if i != bad {
			names, err := an.DecodeBytes(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = strings.Join(names, " > ")
		}
		if lines[i] != want {
			t.Errorf("record %d printed %q, want %q", i+1, lines[i], want)
		}
	}
	if want := fmt.Sprintf("decoded %d records (0 partial, 1 unreadable)", len(recs)); summary != want {
		t.Errorf("summary %q, want %q", summary, want)
	}

	// -unique: one row per distinct context, count descending, ties in
	// context order, so the report does not depend on map order.
	out.Reset()
	if _, err := decodeLog(bytes.NewReader(log.Bytes()), &out, an, true, true); err != nil {
		t.Fatal(err)
	}
	type row struct {
		count int
		ctx   string
	}
	var rows []row
	total := 0
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		count, ctx, _ := strings.Cut(strings.TrimSpace(line), "  ")
		n, err := strconv.Atoi(count)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows = append(rows, row{n, ctx})
		total += n
	}
	if total != len(recs) {
		t.Errorf("-unique counted %d records, want %d", total, len(recs))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.count < b.count || a.count == b.count && a.ctx >= b.ctx {
			t.Errorf("-unique rows out of order: %v before %v", a, b)
		}
	}

	_, err = decodeLog(bytes.NewReader(log.Bytes()), io.Discard, an, false, false)
	if prefix := fmt.Sprintf("record %d: ", bad+1); err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("without -partial: error %v, want one starting %q", err, prefix)
	}
	short := log.Bytes()[:log.Len()-1]
	if _, err := decodeLog(bytes.NewReader(short), io.Discard, an, false, true); err == nil {
		t.Error("-partial accepted a log whose last frame is cut short")
	}
}
