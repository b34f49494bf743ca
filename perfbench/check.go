package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// digest hashes float64 bit patterns, so a job's output digest changes on
// any bit of any output.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

// value folds the hash into a float64 that holds it exactly (53 bits).
func (d digest) value() float64 { return float64(d.h.Sum64() >> 11) }

// outputDigest is the printed digest of one job's outputs: SHA-256 over
// the sorted keys and the bit patterns of their values.
func outputDigest(out map[string]float64) string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var b [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(out[k]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// combineDigests hashes a list of digests in order.
func combineDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func meanSD(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)))
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}
