package profile

import (
	"context"
	"io"
	"sort"
	"sync"

	"deltapath/internal/obs"
)

// HotContext is one row of a decoded profile report.
type HotContext struct {
	// Context is the rendered calling context ("A.main > B.run > ...").
	Context string
	// Count is the aggregate hit count.
	Count uint64
}

// Report is the result of decoding a profile: every distinct calling
// context with its count, hottest first (ties broken by context string, so
// the order is fully deterministic regardless of worker count).
type Report struct {
	Rows []HotContext
	// Records is the number of record entries read from the profile
	// (duplicate records are possible in an append-mode profile and are
	// merged into one row).
	Records uint64
	// Total is the aggregate count across all rows.
	Total uint64
}

// Top returns the first n rows (all rows when n <= 0 or n exceeds the row
// count).
func (r *Report) Top(n int) []HotContext {
	if n <= 0 || n > len(r.Rows) {
		return r.Rows
	}
	return r.Rows[:n]
}

// decodeJob is one record fanned out to the worker pool.
type decodeJob struct {
	record string
	count  uint64
}

// Decode reads every record of r, renders each through decode on a pool of
// workers goroutines, and merges the results into a deterministic Report.
//
// Each worker memoizes the records it has already decoded, so append-mode
// profiles (where one record can recur with separate counts) pay for each
// distinct record at most once per worker. The decoder decode closes over
// is shared by every worker: the compiled decoder's tables are read-only,
// and safe for concurrent use without locks.
//
// The first error — a corrupt record, a failed decode — aborts the run;
// remaining records are drained but not decoded.
func Decode(r *Reader, workers int, decode func(record []byte) (string, error)) (*Report, error) {
	return DecodeContext(context.Background(), r, workers, decode, nil)
}

// DecodeContext is Decode with an observability hook and cancellation. reg
// (nil = no-op) receives the per-worker memo's hit/miss counters, the
// measure of how much decode work append-mode duplication saved. When ctx
// is cancelled
// the reader stops feeding the pool, workers drain the queue without
// decoding, and the call returns ctx.Err() promptly — between records, not
// mid-record, so an in-flight batch decode aborts within one record's
// decode time, so a long-running caller can cut short a decode it no
// longer needs.
func DecodeContext(ctx context.Context, r *Reader, workers int, decode func(record []byte) (string, error), reg *obs.Registry) (*Report, error) {
	memoHits := reg.Counter(obs.MetricProfileDecodeMemoHits)
	memoMisses := reg.Counter(obs.MetricProfileDecodeMemoMiss)
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan decodeJob, 4*workers)
	var (
		readErr error
		mu      sync.Mutex
		wg      sync.WaitGroup
		failed  bool
		firstEr error
		merged  = make(map[string]uint64)
		total   uint64
	)

	// Reader goroutine: stream records into the pool. On corrupt input or
	// cancellation it stops; workers drain whatever was queued.
	go func() {
		defer close(jobs)
		for {
			if ctx.Err() != nil {
				return
			}
			rec, count, err := r.Next()
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
			select {
			case jobs <- decodeJob{record: string(rec), count: count}:
			case <-ctx.Done():
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			memo := make(map[string]string) // record -> rendered context
			local := make(map[string]uint64)
			var localTotal uint64
			for j := range jobs {
				mu.Lock()
				stop := failed
				mu.Unlock()
				if stop || ctx.Err() != nil {
					continue // drain without decoding
				}
				ctx, ok := memo[j.record]
				if ok {
					memoHits.Inc()
				} else {
					memoMisses.Inc()
					var err error
					ctx, err = decode([]byte(j.record))
					if err != nil {
						mu.Lock()
						if !failed {
							failed = true
							firstEr = err
						}
						mu.Unlock()
						continue
					}
					memo[j.record] = ctx
				}
				local[ctx] += j.count
				localTotal += j.count
			}
			mu.Lock()
			for ctx, c := range local {
				merged[ctx] += c
			}
			total += localTotal
			mu.Unlock()
		}()
	}
	wg.Wait()

	// Error precedence: a real decode failure names the broken record; a
	// read error names the corrupt stream; cancellation is only the answer
	// when nothing else went wrong first.
	if failed {
		return nil, firstEr
	}
	if readErr != nil {
		return nil, readErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Records: r.Records(), Total: total}
	rep.Rows = make([]HotContext, 0, len(merged))
	for ctx, c := range merged {
		rep.Rows = append(rep.Rows, HotContext{Context: ctx, Count: c})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Count != rep.Rows[j].Count {
			return rep.Rows[i].Count > rep.Rows[j].Count
		}
		return rep.Rows[i].Context < rep.Rows[j].Context
	})
	return rep, nil
}
