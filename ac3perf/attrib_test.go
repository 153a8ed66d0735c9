package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// protoWriter encodes the protocol buffer subset parseProfile reads.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *protoWriter) bytes(num int, p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *protoWriter) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(num, p)
}

// fixedSample is a stack of locations, leaf first; each location is
// its functions, innermost inlined call first.
type fixedSample struct {
	locs  [][]string
	cpuMs int64
}

// encodeProfile builds a gzipped pprof CPU profile of the samples.
func encodeProfile(t *testing.T, samples []fixedSample) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof protoWriter
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var w protoWriter
		w.varint(valueTypeType, str(vt[0]))
		w.varint(valueTypeUnit, str(vt[1]))
		prof.bytes(profSampleType, w.b)
	}
	funcID := map[string]uint64{}
	var locID uint64
	for _, s := range samples {
		var ids []uint64
		for _, fns := range s.locs {
			locID++
			var loc protoWriter
			loc.varint(locationID, locID)
			for _, fn := range fns {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f protoWriter
					f.varint(functionID, id)
					f.varint(functionName, str(fn))
					prof.bytes(profFunction, f.b)
				}
				var line protoWriter
				line.varint(lineFunction, id)
				loc.bytes(locationLine, line.b)
			}
			prof.bytes(profLocation, loc.b)
			ids = append(ids, locID)
		}
		var sw protoWriter
		sw.packed(sampleLocationID, ids...)
		sw.packed(sampleValue, uint64(s.cpuMs/10), uint64(s.cpuMs*1e6))
		prof.bytes(profSample, sw.b)
	}
	for _, s := range strs {
		prof.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeFixedProfile(t *testing.T) {
	one := func(fn string) []string { return []string{fn} }
	data := encodeProfile(t, []fixedSample{
		// Standard-library crypto under a repro caller: charged to crypto.
		{[][]string{one("crypto/ed25519.Verify"), one("repro/internal/crypto.Signature.Verify"),
			one("repro/internal/chain.(*Tx).VerifySig"), one("repro/internal/engine.runShard"), one("runtime.goexit")}, 40},
		// Allocation inside gob under vm: charged to vm, counted as alloc.
		{[][]string{one("runtime.mallocgc"), one("encoding/gob.(*Decoder).Decode"),
			one("repro/internal/vm.DecodeGob"), one("repro/internal/contracts.(*WitnessSC).Call")}, 20},
		// Background GC worker: charged to runtime_gc.
		{[][]string{one("runtime.scanobject"), one("runtime.gcDrain"), one("runtime.gcBgMarkWorker"), one("runtime.goexit")}, 30},
		// GC assist under a repro caller stays with the caller.
		{[][]string{one("runtime.gcAssistAlloc"), one("runtime.mallocgc"), one("repro/internal/sim.(*Sim).Step")}, 10},
		// Scheduler with no repro caller: other.
		{[][]string{one("runtime.futex"), one("runtime.findRunnable"), one("runtime.schedule")}, 10},
		// Recursion: merkle.Prove three times on one stack counts once.
		{[][]string{one("crypto/sha256.Sum256"), one("repro/internal/merkle.Prove"), one("repro/internal/merkle.Prove"),
			one("repro/internal/merkle.Prove"), one("repro/internal/batch.(*Coordinator).publish")}, 50},
		// Inlining: Header.Hash inlined into Seal in one location.
		{[][]string{one("crypto/sha256.(*digest).Write"),
			{"repro/internal/chain.(*Header).Hash", "repro/internal/chain.(*Header).Seal"},
			one("repro/internal/miner.(*Node).mine")}, 60},
		// A repro package outside the layer list: other.
		{[][]string{one("repro/internal/fees.Estimate"), one("repro/internal/engine.runShard")}, 10},
	})
	samples, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("decoded %d samples, want 8", len(samples))
	}
	if got := samples[6].stack; len(got) != 4 || got[1] != "repro/internal/chain.(*Header).Hash" || got[2] != "repro/internal/chain.(*Header).Seal" {
		t.Fatalf("inlined stack = %q", got)
	}

	a := attribute(samples, []string{
		mallocSymbol,
		"repro/internal/crypto.Signature.Verify",
		"repro/internal/chain.(*Tx).VerifySig",
		"repro/internal/merkle.Prove",
		"repro/internal/chain.(*Header).Hash",
		"repro/internal/chain.(*Header).Seal",
		"repro/internal/spv.Build",
	})
	const ms = int64(1e6)
	if a.totalNs != 230*ms {
		t.Errorf("total = %dms, want 230", a.totalNs/ms)
	}
	wantSelf := map[string]int64{
		"crypto": 40, "vm": 20, gcLayer: 30, "sim": 10, otherLayer: 20, "merkle": 50, "chain": 60,
	}
	var sum int64
	for l, ns := range a.selfNs {
		sum += ns
		if ns != wantSelf[l]*ms {
			t.Errorf("self %s = %dms, want %d", l, ns/ms, wantSelf[l])
		}
	}
	if sum != a.totalNs {
		t.Errorf("self times sum to %dms, total %dms", sum/ms, a.totalNs/ms)
	}
	wantIncl := map[string]int64{
		mallocSymbol:                             30,
		"repro/internal/crypto.Signature.Verify": 40,
		"repro/internal/chain.(*Tx).VerifySig":   40,
		"repro/internal/merkle.Prove":            50,
		"repro/internal/chain.(*Header).Hash":    60,
		"repro/internal/chain.(*Header).Seal":    60,
		"repro/internal/spv.Build":               0,
	}
	for sym, want := range wantIncl {
		if got := a.inclusiveNs[sym]; got != want*ms {
			t.Errorf("inclusive %s = %dms, want %d", sym, got/ms, want)
		}
	}
}

// sink keeps the profiled busy loop from being optimised away.
var sink uint64

// TestParseRuntimeProfile decodes a profile written by runtime/pprof,
// so the decoder follows the real encoder, not only the test's.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || fn == "repro/ac3perf.TestParseRuntimeProfile"
		}
	}
	if !found {
		t.Fatalf("no sample of %d names the busy test function", len(samples))
	}
	a := attribute(samples, nil)
	var sum int64
	for l, ns := range a.selfNs {
		sum += ns
		if l != otherLayer && l != gcLayer {
			t.Errorf("test-binary samples charged to layer %s", l)
		}
	}
	if a.totalNs == 0 || sum != a.totalNs {
		t.Errorf("self times sum to %d of %d ns", sum, a.totalNs)
	}
}
