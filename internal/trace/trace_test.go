package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// record encodes the first n committed-path instructions of (bench, seed)
// with the given block granularity and returns the file image.
func record(t *testing.T, bench string, seed, n uint64, blockRecords int) []byte {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := newRecorder(&buf, prof.New(seed), blockRecords)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(n); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != n {
		t.Fatalf("recorded %d instructions, want %d", rec.Count(), n)
	}
	return buf.Bytes()
}

func mustOpen(t *testing.T, data []byte) *Trace {
	t.Helper()
	tr, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustSource(t *testing.T, tr *Trace) *Source {
	t.Helper()
	s, err := tr.Source()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip pins the core fidelity contract: decoding a recording
// reproduces the live generator's committed stream field-for-field,
// including sequence numbers, across multiple blocks and a partial tail
// block.
func TestRoundTrip(t *testing.T) {
	const n, blockRecords = 10_000, 512
	for _, bench := range []string{"gzip", "swim", "mcf"} {
		data := record(t, bench, 7, n, blockRecords)
		tr := mustOpen(t, data)
		m := tr.Meta()
		if m.Bench != bench || m.Seed != 7 || m.Records != n || m.BlockRecords != blockRecords {
			t.Fatalf("%s: bad meta %+v", bench, m)
		}
		if m.StateVersion != workload.StateVersion {
			t.Errorf("%s: meta state version %d, want %d", bench, m.StateVersion, workload.StateVersion)
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}

		prof, _ := workload.ByName(bench)
		live := prof.New(7)
		src := mustSource(t, tr)
		var want, got isa.Inst
		for i := 0; i < n; i++ {
			live.Next(&want)
			src.Next(&got)
			if got != want {
				t.Fatalf("%s: record %d replayed as %+v, live %+v", bench, i, got, want)
			}
		}
	}
}

// TestWrongPathEquivalence proves replay re-synthesises the exact
// wrong-path stream the live source would produce when both are driven
// with an interleaved committed/wrong-path consumption pattern.
func TestWrongPathEquivalence(t *testing.T) {
	const n = 4000
	data := record(t, "mcf", 3, n, 256)
	prof, _ := workload.ByName("mcf")
	live := prof.New(3)
	src := mustSource(t, mustOpen(t, data))

	var want, got isa.Inst
	for i := 0; i < n; i++ {
		live.Next(&want)
		src.Next(&got)
		if got != want {
			t.Fatalf("committed %d diverged", i)
		}
		if i%13 == 0 {
			for k := 0; k < 3; k++ {
				live.WrongPath(&want)
				src.WrongPath(&got)
				if got != want {
					t.Fatalf("wrong-path after committed %d diverged: %+v vs %+v", i, got, want)
				}
			}
		}
	}
}

// TestWarmupEquivalence checks count-mode Warmup feeds the same access
// sequence as the live source and leaves the stream at the same position.
func TestWarmupEquivalence(t *testing.T) {
	const n, warm = 6000, 3777
	data := record(t, "gcc", 5, n, 512)
	prof, _ := workload.ByName("gcc")
	live := prof.New(5)
	src := mustSource(t, mustOpen(t, data))

	var liveAddrs, srcAddrs []uint64
	live.Warmup(warm, func(a uint64) { liveAddrs = append(liveAddrs, a) })
	src.Warmup(warm, func(a uint64) { srcAddrs = append(srcAddrs, a) })
	if len(liveAddrs) != len(srcAddrs) {
		t.Fatalf("warm-up fed %d accesses, live fed %d", len(srcAddrs), len(liveAddrs))
	}
	for i := range liveAddrs {
		if liveAddrs[i] != srcAddrs[i] {
			t.Fatalf("access %d: %#x vs live %#x", i, srcAddrs[i], liveAddrs[i])
		}
	}
	var want, got isa.Inst
	for i := 0; i < 500; i++ {
		live.Next(&want)
		src.Next(&got)
		if got != want {
			t.Fatalf("post-warm-up instruction %d diverged", i)
		}
		live.WrongPath(&want)
		src.WrongPath(&got)
		if got != want {
			t.Fatalf("post-warm-up wrong path %d diverged", i)
		}
	}
}

// TestSnapshotRestore checks the Snapshottable contract within the
// recording: a restored source continues bit-identically, committed and
// wrong path both.
func TestSnapshotRestore(t *testing.T) {
	const n = 5000
	data := record(t, "vpr", 9, n, 256)
	tr := mustOpen(t, data)

	a := mustSource(t, tr)
	var in isa.Inst
	for i := 0; i < 1234; i++ {
		a.Next(&in)
	}
	a.WrongPath(&in) // advance wrong-path state too
	st := a.Snapshot()
	if st.Consumed != 1234 || st.Kernel != nil {
		t.Fatalf("snapshot: consumed %d kernel %v", st.Consumed, st.Kernel)
	}

	b := mustSource(t, tr)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	var want, got isa.Inst
	for i := 0; i < 2000; i++ {
		a.Next(&want)
		b.Next(&got)
		if got != want {
			t.Fatalf("restored source diverged at %d", i)
		}
		a.WrongPath(&want)
		b.WrongPath(&got)
		if got != want {
			t.Fatalf("restored wrong path diverged at %d", i)
		}
	}

	// Mismatched identities are rejected.
	other := mustSource(t, mustOpen(t, record(t, "vpr", 10, 100, 64)))
	if err := other.Restore(st); err == nil {
		t.Error("snapshot restored onto a different seed")
	}
}

// TestOverflow checks the past-the-recording fallback: the source switches
// to live generation seamlessly, and snapshots taken past the recording
// carry full kernel state and restore.
func TestOverflow(t *testing.T) {
	const n = 1000
	data := record(t, "twolf", 2, n, 256)
	prof, _ := workload.ByName("twolf")
	live := prof.New(2)
	src := mustSource(t, mustOpen(t, data))

	var want, got isa.Inst
	for i := 0; i < n+500; i++ {
		live.Next(&want)
		src.Next(&got)
		if got != want {
			t.Fatalf("instruction %d diverged (recording ends at %d)", i, n)
		}
	}
	st := src.Snapshot()
	if st.Consumed != n+500 || st.Kernel == nil {
		t.Fatalf("overflow snapshot: consumed %d, kernel %v", st.Consumed, st.Kernel != nil)
	}
	b := mustSource(t, mustOpen(t, data))
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		src.Next(&want)
		b.Next(&got)
		if got != want {
			t.Fatalf("restored overflow source diverged at %d", i)
		}
	}
}

// TestDigestBlockSizeIndependence pins the content-digest contract: the
// digest names the instruction stream, not its storage layout.
func TestDigestBlockSizeIndependence(t *testing.T) {
	a := mustOpen(t, record(t, "gzip", 1, 3000, 128))
	b := mustOpen(t, record(t, "gzip", 1, 3000, 1024))
	if a.Meta().Digest != b.Meta().Digest {
		t.Errorf("digest depends on block size: %s vs %s", a.Meta().Digest, b.Meta().Digest)
	}
	c := mustOpen(t, record(t, "gzip", 2, 3000, 128))
	if a.Meta().Digest == c.Meta().Digest {
		t.Error("different seeds share a digest")
	}
	d := mustOpen(t, record(t, "gzip", 1, 3001, 128))
	if a.Meta().Digest == d.Meta().Digest {
		t.Error("different lengths share a digest")
	}
}

// TestCorruptionDetection checks the failure modes: payload bit-flips are
// caught by block digests, header/trailer damage by structural parsing.
func TestCorruptionDetection(t *testing.T) {
	data := record(t, "gzip", 1, 2000, 256)
	tr := mustOpen(t, data)

	// Flip one byte inside the first block's compressed payload.
	flipped := append([]byte(nil), data...)
	flipped[tr.blocks[0].off+3] ^= 0x40
	if tr2, err := New(flipped); err == nil {
		if err := tr2.Verify(); err == nil {
			t.Error("bit-flipped payload verified clean")
		}
	}

	// Flip one byte of the trailer digest.
	flipped = append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 1
	if tr2, err := New(flipped); err == nil {
		if err := tr2.Verify(); err == nil {
			t.Error("bit-flipped trailer digest verified clean")
		}
	}

	// Structural damage fails at parse time.
	for _, mut := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{'X'}, data[1:]...)},
		{"truncated", data[:len(data)-5]},
		{"trailing garbage", append(append([]byte(nil), data...), 0xFF)},
	} {
		if _, err := New(mut.data); err == nil {
			t.Errorf("%s parsed without error", mut.name)
		}
	}
}

// TestRecorderRequiresFreshSource pins the position-zero precondition the
// header's wrong-path seed depends on.
func TestRecorderRequiresFreshSource(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	g := prof.New(1)
	var in isa.Inst
	g.Next(&in)
	if _, err := NewRecorder(&bytes.Buffer{}, g); err == nil {
		t.Error("recorder accepted a consumed source")
	}
}

// TestCached checks the process-wide cache serves unchanged files and
// reloads replaced ones.
func TestCached(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.elt")
	if err := os.WriteFile(path, record(t, "gzip", 1, 500, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("unchanged file was re-parsed")
	}
	// Replace with a different recording; the cache must notice.
	if err := os.WriteFile(path, record(t, "gzip", 2, 600, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta().Seed != 2 {
		t.Errorf("cache served the replaced file (seed %d)", c.Meta().Seed)
	}
}

// TestBenchPath pins the directory naming convention shared by record and
// the -tracedir consumers.
func TestBenchPath(t *testing.T) {
	if got, want := BenchPath("traces", "swim", 3), filepath.Join("traces", "swim-s3.elt"); got != want {
		t.Errorf("BenchPath = %q, want %q", got, want)
	}
}

// TestZigzag pins the signed-delta codec at the extremes.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// TestSharedBlockCache pins the decode-once-per-group property: K sources
// replaying the same trace in near-lockstep share each decoded block
// through the trace's cache, so the group performs one decode per block —
// not one per lane — while every lane still sees the exact live stream.
func TestSharedBlockCache(t *testing.T) {
	const n, blockRecords, lanes = 8_000, 512, 6
	data := record(t, "mcf", 5, n, blockRecords)
	tr := mustOpen(t, data)
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Decodes(); got != 0 {
		t.Fatalf("Verify counted %d decodes; the hook must count only shared-cache misses", got)
	}

	prof, _ := workload.ByName("mcf")
	lives := make([]*workload.Generator, lanes)
	srcs := make([]*Source, lanes)
	for k := 0; k < lanes; k++ {
		lives[k] = prof.New(5)
		srcs[k] = mustSource(t, tr)
	}
	// Interleave in chunks smaller than a block so every lane crosses each
	// block boundary while it is still resident.
	var want, got isa.Inst
	for consumed := 0; consumed < n; consumed += 100 {
		for k := 0; k < lanes; k++ {
			for i := 0; i < 100; i++ {
				lives[k].Next(&want)
				srcs[k].Next(&got)
				if got != want {
					t.Fatalf("lane %d record %d replayed as %+v, live %+v", k, consumed+i, got, want)
				}
			}
		}
	}
	wantDecodes := uint64(len(tr.blocks))
	if got := tr.Decodes(); got != wantDecodes {
		t.Fatalf("%d lanes performed %d block decodes, want one per block (%d)", lanes, got, wantDecodes)
	}
}

// TestBlockCacheBounded: a straggler re-requesting long-evicted blocks
// re-decodes them (the resident set is a bounded FIFO, not the whole trace)
// and still reads the right records.
func TestBlockCacheBounded(t *testing.T) {
	const n, blockRecords = uint64(8_000), 512
	data := record(t, "swim", 9, n, blockRecords)
	tr := mustOpen(t, data)
	nblocks := len(tr.blocks)
	if nblocks <= blockCacheCap {
		t.Fatalf("trace has %d blocks; the test wants more than the %d-block cache", nblocks, blockCacheCap)
	}
	for i := 0; i < nblocks; i++ {
		if _, err := tr.Block(i); err != nil {
			t.Fatal(err)
		}
	}
	if resident := len(tr.blockCache); resident != blockCacheCap {
		t.Fatalf("%d blocks resident after a full sweep, want %d", resident, blockCacheCap)
	}
	recs, err := tr.Block(0) // long evicted: must decode again, correctly
	if err != nil {
		t.Fatal(err)
	}
	if tr.Decodes() != uint64(nblocks)+1 {
		t.Fatalf("decode count %d after re-request, want %d", tr.Decodes(), nblocks+1)
	}
	if len(recs) != blockRecords || recs[0].Seq != 0 {
		t.Fatalf("re-decoded block 0 wrong: %d records, first seq %d", len(recs), recs[0].Seq)
	}
}

// TestDigestAllocFree pins that folding records into the content digest
// allocates nothing per record, on both the recording and the verifying
// side. Per-block work (compression, block buffers) may allocate, so each
// side is measured at two block sizes with the same block count and the
// allocation difference is divided by the difference in records.
func TestDigestAllocFree(t *testing.T) {
	const blocks = 4
	small, large := 256, 2048
	perRecord := func(name string, allocs func(blockRecords int) float64) {
		t.Helper()
		a, b := allocs(small), allocs(large)
		if got := (b - a) / float64(blocks*(large-small)); got > 0.01 {
			t.Errorf("%s: %.3f allocs per record (%.0f allocs at %d records/block, %.0f at %d)",
				name, got, a, small, b, large)
		}
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	perRecord("record", func(blockRecords int) float64 {
		rec, err := newRecorder(io.Discard, prof.New(1), blockRecords)
		if err != nil {
			t.Fatal(err)
		}
		// The first block sizes the reusable buffers; measure the rest.
		if err := rec.Record(uint64(blockRecords)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := rec.Record(uint64(blocks * blockRecords)); err != nil {
				t.Fatal(err)
			}
		})
	})
	perRecord("verify", func(blockRecords int) float64 {
		data := record(t, "gcc", 1, uint64(blocks*blockRecords), blockRecords)
		return testing.AllocsPerRun(3, func() {
			if err := mustOpen(t, data).Verify(); err != nil {
				t.Fatal(err)
			}
		})
	})
}
