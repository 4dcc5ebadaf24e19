package main

import (
	"math"
	"sort"
)

// sizes fixes how much work each stage does. fullSizes is the benchmark;
// the tests of the checks run tinySizes.
type sizes struct {
	// profile-run: suite programs with their loop-trip scale factors.
	profilePrograms []string
	profileScale    []float64
	profileRounds   int // each timed profile-run part runs at least this many rounds
	tracedRounds    int // rounds of each arm of a traced run

	// analyze: suite programs parsed from text, and the huge graph.
	analyzePrograms []string
	hugeNodes       int
	walkSamples     int // random-walk paths decoded by the huge-graph check

	// ingest-query
	recordRuns    int   // seeded runs cut into batches
	batchRecords  int   // distinct records in one batch
	warmBatches   int   // batches sent during set-up, before timing
	ingestBatches int   // batches of each arm of a traced run
	walMaxBytes   int64 // WAL size at which the server flushes the memtable
	queryEvery    int   // client 0 issues a top-K query every queryEvery ops
	topK          int
}

func fullSizes() sizes {
	return sizes{
		profilePrograms: []string{"compress", "scimark.fft.large", "mpegaudio"},
		profileScale:    []float64{2, 2, 6},
		profileRounds:   2,
		tracedRounds:    4,

		analyzePrograms: []string{"sunflow", "mpegaudio", "crypto.rsa"},
		hugeNodes:       50_000,
		walkSamples:     256,

		recordRuns:    4,
		batchRecords:  256,
		warmBatches:   400,
		ingestBatches: 5000,
		walMaxBytes:   8 << 20,
		queryEvery:    32,
		topK:          20,
	}
}

func tinySizes() sizes {
	return sizes{
		profilePrograms: []string{"compress", "mpegaudio"},
		profileScale:    []float64{0.05, 0.2},
		profileRounds:   1,
		tracedRounds:    1,

		analyzePrograms: []string{"crypto.rsa"},
		hugeNodes:       3_000,
		walkSamples:     32,

		recordRuns:    1,
		batchRecords:  64,
		warmBatches:   10,
		ingestBatches: 40,
		walMaxBytes:   16 << 10,
		queryEvery:    8,
		topK:          5,
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mix derives an independent 64-bit seed from the run seed and a stream
// number (splitmix64 finalizer).
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
