package main

import "strings"

// reproPrefix is the import-path prefix of the repository's layers.
const reproPrefix = "repro/internal/"

// layers are the repository modules an AC2T's CPU time is split
// across, in report order. Samples in no layer's code go to gcLayer or
// otherLayer, so the self times of all of them sum to the profile total.
var layers = []string{
	"sim", "p2p", "miner", "chain", "crypto", "vm", "contracts", "spv",
	"merkle", "core", "swap", "protocol", "batch", "engine", "xchain",
	"graph", "metrics", "trace",
}

const (
	// gcLayer takes samples of the runtime's background GC workers.
	gcLayer = "runtime_gc"
	// otherLayer takes the rest: scheduler and profiler samples with no
	// repro caller, the benchmark's own code, and any repro package not
	// in layers.
	otherLayer = "other"
)

// selfLayers are all the layers self time is charged to.
var selfLayers = append(layers[:len(layers):len(layers)], gcLayer, otherLayer)

// gcRoots mark a stack with no repro frame as background GC work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// entryPoint is a public layer function whose inclusive CPU time the
// traced run reports.
type entryPoint struct {
	pkg, fn string // as in the metric name: call.<pkg>.<fn>.ms_per_ac2t
	symbol  string // the function's symbol in the profile
}

// entryPoints are the calls into each layer that the traced run times.
var entryPoints = []entryPoint{
	{"crypto", "Signature.Verify", "repro/internal/crypto.Signature.Verify"},
	{"crypto", "KeyPair.Sign", "repro/internal/crypto.(*KeyPair).Sign"},
	{"crypto", "MultiSig.Add", "repro/internal/crypto.(*MultiSig).Add"},
	{"crypto", "MultiSig.Complete", "repro/internal/crypto.(*MultiSig).Complete"},
	{"chain", "Tx.VerifySig", "repro/internal/chain.(*Tx).VerifySig"},
	{"chain", "Header.Hash", "repro/internal/chain.(*Header).Hash"},
	{"chain", "Header.CheckPoW", "repro/internal/chain.(*Header).CheckPoW"},
	{"chain", "Header.Seal", "repro/internal/chain.(*Header).Seal"},
	{"chain", "Chain.BuildBlock", "repro/internal/chain.(*Chain).BuildBlock"},
	{"chain", "Chain.AddBlock", "repro/internal/chain.(*Chain).AddBlock"},
	{"chain", "ApplyTx", "repro/internal/chain.ApplyTx"},
	{"vm", "EncodeGob", "repro/internal/vm.EncodeGob"},
	{"vm", "DecodeGob", "repro/internal/vm.DecodeGob"},
	{"spv", "Evidence.Verify", "repro/internal/spv.(*Evidence).Verify"},
	{"spv", "Build", "repro/internal/spv.Build"},
	{"merkle", "Prove", "repro/internal/merkle.Prove"},
	{"merkle", "Proof.Verify", "repro/internal/merkle.(*Proof).Verify"},
}

// mallocSymbol is the allocator entry whose inclusive time is
// cpu.alloc_ms_per_ac2t.
const mallocSymbol = "runtime.mallocgc"

// attribution is a CPU profile split by layer and by entry point.
type attribution struct {
	totalNs int64
	// selfNs charges every sample to exactly one of layers, gcLayer or
	// otherLayer, so its values sum to totalNs.
	selfNs map[string]int64
	// inclusiveNs is the time of samples with the symbol anywhere on
	// the stack, each sample counted once however often it recurses.
	inclusiveNs map[string]int64
}

// attribute splits the samples by layer and sums the inclusive time
// of the given symbols.
func attribute(samples []sample, symbols []string) attribution {
	a := attribution{selfNs: map[string]int64{}, inclusiveNs: map[string]int64{}}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	want := map[string]bool{}
	for _, s := range symbols {
		want[s] = true
		a.inclusiveNs[s] = 0
	}
	seen := map[string]bool{}
	for _, s := range samples {
		a.totalNs += s.cpuNs
		a.selfNs[selfLayer(s.stack, known)] += s.cpuNs
		clear(seen)
		for _, fn := range s.stack {
			if want[fn] && !seen[fn] {
				seen[fn] = true
				a.inclusiveNs[fn] += s.cpuNs
			}
		}
	}
	return a
}

// selfLayer names the layer a stack's time is charged to: the
// innermost repro frame's package, so standard-library and runtime
// frames (ed25519, sha256, gob, mallocgc) go to their nearest repro
// caller. A stack with no repro frame is GC work if a background GC
// worker is on it, and other work otherwise.
func selfLayer(stack []string, known map[string]bool) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, reproPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if known[pkg] {
				return pkg
			}
			return otherLayer
		}
		gc = gc || gcRoots[fn]
	}
	if gc {
		return gcLayer
	}
	return otherLayer
}
