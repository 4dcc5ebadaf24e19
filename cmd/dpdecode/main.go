// Command dpdecode decodes binary context records produced by
// "dprun -record": the offline half of the event-logging workflow. The log
// carries only integer-sized encodings; dpdecode re-runs the static
// analysis on the same program (it is deterministic) and prints the exact
// calling context of every record.
//
// Usage:
//
//	dpdecode [-app] [-unique] [-partial] program.mv log.bin
//	dpdecode -analysis saved.dpa [-unique] [-partial] log.bin
//	dpdecode -profile [-workers N] [-top N] program.mv profile.dpp
//	dpdecode -profile -analysis saved.dpa [-workers N] [-top N] profile.dpp
//
// In the first form the program is re-analysed (deterministically); the
// options must match the recording run. In the second form a persisted
// analysis file (dprun -save) is used — no program needed; the file carries
// a digest of the call graph it was built over, and loading refuses a file
// whose digest does not match its own payload (torn write, version skew).
//
// With -profile, the input is a .dpp profile (dprun -profile) instead of a
// record log: the records are decoded by a -workers pool and printed as a
// hot-context report — count-descending, deterministic regardless of worker
// count — optionally trimmed to the top -top rows. A profile recorded over
// a different program is refused by the graph digest embedded in the .dpp
// header.
//
// All decoding runs through the compiled flat-table decoder
// (encoding.Compile): precomputed CSR in-edge rows and territory bitsets,
// shared lock-free across workers, with per-worker reusable frame buffers.
//
// A corrupt record fails with a distinct exit code per corruption class, so
// pipelines can triage without parsing messages:
//
//	1  generic error (I/O, malformed file)
//	2  usage
//	3  corrupt encoding (structural: bad nodes, bad piece kinds, no convergence)
//	4  no matching in-edge (ID does not correspond to any path)
//	5  residual ID at piece start (additions do not sum to a valid path)
//
// With -partial, corrupt records do not fail the run: each decodes to its
// longest decodable suffix behind an explicit "..." gap (best-effort mode),
// or to the gap alone when its bytes do not parse, and the partial and
// unreadable counts are reported at the end. A broken frame still fails.
package main

import (
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"deltapath"
)

// decoder is a re-run *deltapath.Analysis or a loaded *OfflineDecoder.
type decoder interface {
	DecodeBytes(record []byte) ([]string, error)
	DecodeBytesBestEffort(record []byte) (names []string, complete bool, err error)
	DecodeProfile(r io.Reader, workers int) (*deltapath.ProfileReport, error)
}

func main() {
	app := flag.Bool("app", false, "encoding-application setting (must match the recording run)")
	unique := flag.Bool("unique", false, "aggregate identical contexts with counts")
	analysisFile := flag.String("analysis", "", "persisted analysis file (replaces the program argument)")
	partial := flag.Bool("partial", false, "best-effort mode: decode corrupt records to their longest decodable suffix")
	profileIn := flag.Bool("profile", false, "input is a .dpp profile (dprun -profile): print a hot-context report")
	workers := flag.Int("workers", 4, "with -profile: decode worker pool size")
	top := flag.Int("top", 0, "with -profile: print only the N hottest contexts (0 = all)")
	flag.Parse()
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "dpdecode: -workers must be >= 1")
		os.Exit(2)
	}

	var dec decoder
	var logPath string
	switch {
	case *analysisFile != "" && flag.NArg() == 1:
		af, err := os.Open(*analysisFile)
		if err != nil {
			fatal(err)
		}
		off, err := deltapath.LoadDecoder(af)
		af.Close()
		if err != nil {
			fatal(err)
		}
		if ep := off.Epoch(); ep > 0 {
			fmt.Fprintf(os.Stderr, "analysis epoch %d (extended snapshot)\n", ep)
		}
		dec = off
		logPath = flag.Arg(0)
	case *analysisFile == "" && flag.NArg() == 2:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		prog, err := deltapath.ParseProgram(string(src))
		if err != nil {
			fatal(err)
		}
		an, err := deltapath.Analyze(prog, deltapath.Options{ApplicationOnly: *app})
		if err != nil {
			fatal(err)
		}
		dec = an
		logPath = flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: dpdecode [-app] [-unique] [-partial] program.mv log.bin")
		fmt.Fprintln(os.Stderr, "       dpdecode -analysis saved.dpa [-unique] [-partial] log.bin")
		fmt.Fprintln(os.Stderr, "       dpdecode -profile [-workers N] [-top N] program.mv profile.dpp")
		os.Exit(2)
	}
	f, err := os.Open(logPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	if *profileIn {
		rep, err := dec.DecodeProfile(f, *workers)
		if err != nil {
			fatal(err)
		}
		rows := rep.Top(*top)
		for _, row := range rows {
			fmt.Printf("%8d  %s\n", row.Count, row.Context)
		}
		if *top > 0 && len(rep.Rows) > len(rows) {
			fmt.Fprintf(os.Stderr, "decoded %d records: %d contexts, %d samples (top %d shown)\n",
				rep.Records, len(rep.Rows), rep.Total, len(rows))
			return
		}
		fmt.Fprintf(os.Stderr, "decoded %d records: %d contexts, %d samples\n",
			rep.Records, len(rep.Rows), rep.Total)
		return
	}

	summary, err := decodeLog(f, os.Stdout, dec, *unique, *partial)
	if err != nil {
		fatalDecode(err)
	}
	fmt.Fprintln(os.Stderr, summary)
}

// decodeLog decodes the length-prefixed records of a "dprun -record" log
// from r onto w, one line per record or, with unique, one per distinct
// context with its count (count descending, ties in context order), and
// returns the summary line. With partial a record whose bytes do not parse
// prints as a bare "..." gap; without it, it ends the run. A broken frame
// always ends the run.
func decodeLog(r io.Reader, w io.Writer, dec decoder, unique, partial bool) (string, error) {
	counts := make(map[string]int)
	n, partials, unreadable := 0, 0, 0
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return "", fmt.Errorf("record %d: %w", n, err)
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size > 1<<20 {
			return "", fmt.Errorf("record %d: implausible size %d", n, size)
		}
		rec := make([]byte, size)
		if _, err := io.ReadFull(r, rec); err != nil {
			return "", fmt.Errorf("record %d: %w", n, err)
		}
		n++
		var names []string
		var err error
		if partial {
			var complete bool
			names, complete, err = dec.DecodeBytesBestEffort(rec)
			switch {
			case err != nil:
				names = []string{"..."}
				unreadable++
			case !complete:
				partials++
			}
		} else if names, err = dec.DecodeBytes(rec); err != nil {
			return "", fmt.Errorf("record %d: %w", n, err)
		}
		ctx := strings.Join(names, " > ")
		if unique {
			counts[ctx]++
		} else {
			fmt.Fprintln(w, ctx)
		}
	}
	if unique {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b string) int {
			return cmp.Or(cmp.Compare(counts[b], counts[a]), strings.Compare(a, b))
		})
		for _, k := range keys {
			fmt.Fprintf(w, "%8d  %s\n", counts[k], k)
		}
	}
	switch {
	case unreadable > 0:
		return fmt.Sprintf("decoded %d records (%d partial, %d unreadable)", n, partials, unreadable), nil
	case partials > 0:
		return fmt.Sprintf("decoded %d records (%d partial)", n, partials), nil
	}
	return fmt.Sprintf("decoded %d records", n), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpdecode:", err)
	os.Exit(1)
}

// fatalDecode exits with a corruption-class-specific code so pipelines can
// triage corrupt logs without parsing error text.
func fatalDecode(err error) {
	fmt.Fprintln(os.Stderr, "dpdecode:", err)
	switch {
	case errors.Is(err, deltapath.ErrNoMatchingEdge):
		fmt.Fprintln(os.Stderr, "dpdecode: the record's ID matches no path under this analysis — wrong analysis file, or a corrupted record (retry with -partial to salvage a suffix)")
		os.Exit(4)
	case errors.Is(err, deltapath.ErrResidualID):
		fmt.Fprintln(os.Stderr, "dpdecode: the record's additions do not sum to a valid path — likely a bit flip in the ID (retry with -partial to salvage a suffix)")
		os.Exit(5)
	case errors.Is(err, deltapath.ErrCorruptEncoding):
		fmt.Fprintln(os.Stderr, "dpdecode: the record is structurally corrupt (retry with -partial to salvage a suffix)")
		os.Exit(3)
	}
	os.Exit(1)
}
