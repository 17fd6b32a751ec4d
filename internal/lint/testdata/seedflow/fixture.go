// Package model is the seedflow golden fixture: RNG constructors whose
// seed arguments derive — through locals, helpers, struct fields and
// cross-function calls — from nondeterministic roots, next to the
// sanctioned index-seeded shapes that must stay clean.
package model

import (
	"math/rand"
	"os"
	"time"
)

// lastSeed is package-level mutable state: reading it for a seed makes
// the stream depend on call order.
var lastSeed int64

type opts struct {
	Seed int64
}

// badClockSeed seeds straight from the wall clock, the obvious shape:
// unreproducible even through a local generator.
func badClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want seedflow `rand\.NewSource is seeded from the wall clock \(time\.Now\)`
}

// badPidSeed seeds straight from process identity.
func badPidSeed() rand.Source {
	return rand.NewSource(int64(os.Getpid())) // want seedflow `rand\.NewSource is seeded from process identity \(os\.Getpid\)`
}

// clockSeed launders the wall clock through a local variable.
func clockSeed() *rand.Rand {
	seed := time.Now().UnixNano()
	return rand.New(rand.NewSource(seed)) // want seedflow `rand\.NewSource is seeded from the wall clock \(time\.Now\)`
}

// pidSeed launders process identity through a helper's return value.
func pidSeed() rand.Source {
	return rand.NewSource(noise()) // want seedflow `rand\.NewSource is seeded from process identity \(os\.Getpid\)`
}

func noise() int64 { return int64(os.Getpid()) }

// globalSeed reads mutable package state.
func globalSeed() rand.Source {
	return rand.NewSource(lastSeed) // want seedflow `rand\.NewSource is seeded from package-level mutable state \(lastSeed\)`
}

// build's seed parameter is tainted by its caller below; the finding is
// reported here, at the constructor, citing the call site.
func build(seed int64) rand.Source {
	return rand.NewSource(seed) // want seedflow `rand\.NewSource is seeded from the wall clock \(time\.Now\).*tainted via the call at`
}

func misuse() rand.Source {
	return build(time.Now().UnixNano())
}

// chunkSource is the sanctioned scheme: every stream derives from the
// run seed and the chunk index. mix's parameters trace back through
// chunkSource's module callers — all clean.
func chunkSource(o opts, i int) rand.Source {
	return rand.NewSource(mix(o.Seed, int64(i)))
}

func mix(seed, i int64) int64 {
	z := seed + i*0x5851f42d4c957f2d
	z ^= z >> 30
	return z
}

// fromOptions exercises the field-sensitive composite-literal trace:
// o.Seed carries only what the literal put into Seed.
func fromOptions(base int64) rand.Source {
	o := opts{Seed: base + 17}
	return rand.NewSource(o.Seed)
}
