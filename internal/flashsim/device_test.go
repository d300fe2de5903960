package flashsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func kb(n int) int { return n * 1024 }

func TestValidate(t *testing.T) {
	for _, cfg := range Profiles() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", cfg.Name, err)
		}
	}
	bad := Iodrive()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = Iodrive()
	bad.FlashPageSize = 3000
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	bad = Iodrive()
	bad.NCQDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero NCQ depth accepted")
	}
	if _, err := NewDevice(bad); err == nil {
		t.Error("NewDevice accepted invalid config")
	}
}

func TestProfileByName(t *testing.T) {
	c, err := ProfileByName("p300")
	if err != nil || c.Name != "p300" {
		t.Fatalf("ProfileByName(p300) = %v, %v", c.Name, err)
	}
	if _, err := ProfileByName("nosuch"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestLocateStriping(t *testing.T) {
	d := MustDevice(P300())
	m := d.cfg.Channels
	// Consecutive flash pages must span channels first.
	seen := map[int]bool{}
	for fpn := int64(0); fpn < int64(m); fpn++ {
		ch, _ := d.locate(fpn)
		if seen[ch] {
			t.Fatalf("channel %d reused within first %d pages", ch, m)
		}
		seen[ch] = true
	}
	// Page m must wrap to channel 0, next package.
	ch, pkg := d.locate(int64(m))
	if ch != 0 || pkg != 1 {
		t.Fatalf("locate(%d) = (%d,%d), want (0,1)", m, ch, pkg)
	}
}

func TestSingleReadLatencyComposition(t *testing.T) {
	cfg := P300()
	d := MustDevice(cfg)
	res := d.SubmitOne(0, Request{Op: Read, Offset: 0, Size: cfg.FlashPageSize})
	want := cfg.CellReadLatency +
		vtime.Ticks(float64(cfg.FlashPageSize)*cfg.ChannelNsPerByte) +
		vtime.Ticks(float64(cfg.FlashPageSize)*cfg.HostNsPerByte) +
		cfg.CmdOverhead
	if res.Latency() != want {
		t.Fatalf("read latency = %v, want %v", res.Latency(), want)
	}
}

func TestSingleWriteLatencyComposition(t *testing.T) {
	cfg := P300()
	d := MustDevice(cfg)
	res := d.SubmitOne(0, Request{Op: Write, Offset: 0, Size: cfg.FlashPageSize})
	want := vtime.Ticks(float64(cfg.FlashPageSize)*cfg.HostNsPerByte) +
		vtime.Ticks(float64(cfg.FlashPageSize)*cfg.ChannelNsPerByte) +
		cfg.CellProgramLatency +
		cfg.CmdOverhead
	if res.Latency() != want {
		t.Fatalf("write latency = %v, want %v", res.Latency(), want)
	}
}

// TestPackageLevelParallelism reproduces the core observation behind
// Figure 2: doubling the I/O size from one flash page to two must cost far
// less than double the latency, because the second page lands on another
// channel.
func TestPackageLevelParallelism(t *testing.T) {
	for _, cfg := range Profiles() {
		d := MustDevice(cfg)
		small := d.SubmitOne(0, Request{Op: Read, Offset: 0, Size: cfg.FlashPageSize}).Latency()
		d2 := MustDevice(cfg)
		big := d2.SubmitOne(0, Request{Op: Read, Offset: 0, Size: 2 * cfg.FlashPageSize}).Latency()
		if big >= 2*small {
			t.Errorf("%s: 2-page read %v not sublinear vs 1-page %v", cfg.Name, big, small)
		}
		// It must still cost something more (host bus serializes transfers).
		if big < small {
			t.Errorf("%s: 2-page read %v cheaper than 1-page %v", cfg.Name, big, small)
		}
	}
}

// TestChannelLevelParallelism reproduces Figure 3: submitting 32
// outstanding 4KB reads must yield far more bandwidth than one at a time.
func TestChannelLevelParallelism(t *testing.T) {
	for _, cfg := range []Config{Iodrive(), P300(), F120()} {
		reqSize := kb(4)
		n := 256
		mkReqs := func() []Request {
			reqs := make([]Request, n)
			for i := range reqs {
				// Spread across the address space pseudo-randomly.
				reqs[i] = Request{Op: Read, Offset: int64((i*2654435761 + 17) % (1 << 22) * int(4096)), Size: reqSize}
			}
			return reqs
		}
		// One at a time.
		d1 := MustDevice(cfg)
		var now vtime.Ticks
		for _, r := range mkReqs() {
			res := d1.SubmitOne(now, r)
			now = res.Done
		}
		serial := now
		// 32 at a time.
		d2 := MustDevice(cfg)
		now = 0
		reqs := mkReqs()
		for i := 0; i < n; i += 32 {
			_, done := d2.Submit(now, reqs[i:i+32])
			now = done
		}
		parallel := now
		gain := float64(serial) / float64(parallel)
		if gain < 6 {
			t.Errorf("%s: OutStd-32 gain %.1fx, want >= 6x (serial=%v parallel=%v)",
				cfg.Name, gain, serial, parallel)
		}
		if gain > float64(cfg.TotalPackages())*2 {
			t.Errorf("%s: gain %.1fx implausibly exceeds 2*m*n", cfg.Name, gain)
		}
	}
}

// TestInterleavePenalty reproduces Figure 3(c): an R,W,R,W... pattern must
// be slower than n reads followed by n writes at the same OutStd level.
func TestInterleavePenalty(t *testing.T) {
	for _, cfg := range []Config{Iodrive(), P300(), F120()} {
		const depth = 32
		const rounds = 16
		run := func(interleaved bool) vtime.Ticks {
			d := MustDevice(cfg)
			var now vtime.Ticks
			seed := 12345
			for r := 0; r < rounds; r++ {
				reqs := make([]Request, depth)
				for i := range reqs {
					seed = seed*1103515245 + 12345
					off := int64((seed>>8)&0xFFFFF) * 4096
					op := Read
					if interleaved {
						if i%2 == 1 {
							op = Write
						}
					} else if i >= depth/2 {
						op = Write
					}
					reqs[i] = Request{Op: op, Offset: off, Size: kb(4)}
				}
				_, done := d.Submit(now, reqs)
				now = done
			}
			return now
		}
		inter := run(true)
		noninter := run(false)
		ratio := float64(inter) / float64(noninter)
		if ratio < 1.05 {
			t.Errorf("%s: interleaved/non-interleaved = %.3f, want > 1.05", cfg.Name, ratio)
		}
		if ratio > 2.5 {
			t.Errorf("%s: interleave penalty %.2fx implausibly large", cfg.Name, ratio)
		}
	}
}

func TestNCQDepthLimitsParallelism(t *testing.T) {
	cfg := P300()
	cfg.NCQDepth = 4
	shallow := MustDevice(cfg)
	cfg2 := P300()
	cfg2.NCQDepth = 64
	deep := MustDevice(cfg2)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Op: Read, Offset: int64(i) * 4096, Size: 4096}
	}
	_, shallowDone := shallow.Submit(0, reqs)
	_, deepDone := deep.Submit(0, reqs)
	if shallowDone <= deepDone {
		t.Fatalf("NCQ depth 4 (%v) not slower than depth 64 (%v)", shallowDone, deepDone)
	}
}

func TestSubmitEmptyBatch(t *testing.T) {
	d := MustDevice(F120())
	res, done := d.Submit(42, nil)
	if res != nil || done != 42 {
		t.Fatalf("empty batch: res=%v done=%v", res, done)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := MustDevice(F120())
	d.SubmitOne(0, Request{Op: Read, Offset: 0, Size: kb(8)})
	d.SubmitOne(0, Request{Op: Write, Offset: 0, Size: kb(4)})
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("ops = %d/%d, want 1/1", s.Reads, s.Writes)
	}
	if s.BytesRead != int64(kb(8)) || s.BytesWritten != int64(kb(4)) {
		t.Fatalf("bytes = %d/%d", s.BytesRead, s.BytesWritten)
	}
	if s.TotalOps() != 2 {
		t.Fatalf("TotalOps = %d", s.TotalOps())
	}
	if s.String() == "" {
		t.Fatal("empty Stats.String")
	}
	d.ResetStats()
	if d.Stats().TotalOps() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

// Property: request completion must never precede submission, and later
// submissions on an idle device must never complete earlier than an
// identical earlier one (monotonicity of the resource time lines).
func TestQuickLatencyPositive(t *testing.T) {
	cfg := P300()
	d := MustDevice(cfg)
	var now vtime.Ticks
	f := func(off uint32, sz uint16, isWrite bool) bool {
		size := int(sz)%kb(64) + 1
		op := Read
		if isWrite {
			op = Write
		}
		res := d.SubmitOne(now, Request{Op: op, Offset: int64(off), Size: size})
		ok := res.Done > res.Start && res.Start >= now
		now = res.Done
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch completion equals the max of member completions.
func TestQuickBatchDoneIsMax(t *testing.T) {
	d := MustDevice(Iodrive())
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		reqs := make([]Request, len(seeds))
		for i, s := range seeds {
			op := Read
			if s%3 == 0 {
				op = Write
			}
			reqs[i] = Request{Op: op, Offset: int64(s%1024) * 4096, Size: int(s%8+1) * 2048}
		}
		res, done := d.Submit(0, reqs)
		var max vtime.Ticks
		for _, r := range res {
			if r.Done > max {
				max = r.Done
			}
		}
		return done == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op.String wrong")
	}
}

// TestWearEvenUnderStripedWrites: round-robin striping must spread page
// programs evenly across the package array.
func TestWearEvenUnderStripedWrites(t *testing.T) {
	cfg := P300()
	d := MustDevice(cfg)
	// Write every flash page of a region twice the array size.
	pages := cfg.TotalPackages() * 8
	var now vtime.Ticks
	for i := 0; i < pages; i++ {
		res := d.SubmitOne(now, Request{Op: Write, Offset: int64(i) * int64(cfg.FlashPageSize), Size: cfg.FlashPageSize})
		now = res.Done
	}
	min, max, mean := d.Wear()
	if min != max {
		t.Fatalf("uneven wear under striped writes: min=%d max=%d", min, max)
	}
	if mean != 8 {
		t.Fatalf("mean wear %.1f, want 8", mean)
	}
}

// TestWearHotspot: hammering one page concentrates wear on one package.
func TestWearHotspot(t *testing.T) {
	d := MustDevice(F120())
	var now vtime.Ticks
	for i := 0; i < 100; i++ {
		res := d.SubmitOne(now, Request{Op: Write, Offset: 0, Size: 4096})
		now = res.Done
	}
	min, max, _ := d.Wear()
	if max < 100 || min != 0 {
		t.Fatalf("hotspot not visible: min=%d max=%d", min, max)
	}
}

func TestAgingSlowsWrites(t *testing.T) {
	fresh := MustDevice(P300())
	aged := MustDevice(P300())
	aged.SetAging(Aging{ProgramFactor: 3.0})
	req := Request{Op: Write, Offset: 0, Size: aged.cfg.FlashPageSize}
	f := fresh.SubmitOne(0, req)
	a := aged.SubmitOne(0, req)
	wantExtra := vtime.Ticks(float64(aged.cfg.CellProgramLatency)*3.0) - aged.cfg.CellProgramLatency
	if a.Latency()-f.Latency() != wantExtra {
		t.Fatalf("aged write latency %v, fresh %v, want delta %v", a.Latency(), f.Latency(), wantExtra)
	}
	// Reads are unaffected by program-time aging.
	req.Op = Read
	fr := fresh.SubmitOne(f.Done, req)
	ar := aged.SubmitOne(a.Done, req)
	if fr.Latency() != ar.Latency() {
		t.Fatalf("aging changed read latency: fresh %v aged %v", fr.Latency(), ar.Latency())
	}
	if got := aged.Aging().ProgramFactor; got != 3.0 {
		t.Fatalf("Aging() = %v, want 3.0", got)
	}
}

func TestAgingGCStalls(t *testing.T) {
	d := MustDevice(P300())
	d.SetAging(Aging{GCEvery: 2, GCStall: vtime.Millisecond})
	now := vtime.Ticks(0)
	// 8 single-page writes to the same flash page hit one package; every
	// second program triggers a collection.
	for i := 0; i < 8; i++ {
		res := d.SubmitOne(now, Request{Op: Write, Offset: 0, Size: d.cfg.FlashPageSize})
		now = res.Done
	}
	st := d.Stats()
	if st.GCStalls != 4 {
		t.Fatalf("GCStalls = %d, want 4", st.GCStalls)
	}
	if st.GCStallTime != 4*vtime.Millisecond {
		t.Fatalf("GCStallTime = %v, want 4ms", st.GCStallTime)
	}
	// The stall is visible as added latency on the triggering requests.
	clean := MustDevice(P300())
	cnow := vtime.Ticks(0)
	for i := 0; i < 8; i++ {
		res := clean.SubmitOne(cnow, Request{Op: Write, Offset: 0, Size: clean.cfg.FlashPageSize})
		cnow = res.Done
	}
	if now-cnow != 4*vtime.Millisecond {
		t.Fatalf("aged makespan delta = %v, want 4ms", now-cnow)
	}
}

// TestSubmitOneMatchesSubmit pins SubmitOne to the model: it serves its
// request under the lock without going through Submit, so every profile
// replays one random request sequence on two devices, one per entry
// point, and the two must agree on every result and counter at every step.
func TestSubmitOneMatchesSubmit(t *testing.T) {
	agings := []struct {
		name string
		a    Aging
	}{
		{"fresh", Aging{}},
		{"aged", Aging{ProgramFactor: 2.5, GCEvery: 7, GCStall: 300 * vtime.Microsecond}},
	}
	for _, cfg := range Profiles() {
		for _, ag := range agings {
			cfg, ag := cfg, ag
			t.Run(cfg.Name+"/"+ag.name, func(t *testing.T) {
				one, batch := MustDevice(cfg), MustDevice(cfg)
				one.SetAging(ag.a)
				batch.SetAging(ag.a)
				rng := rand.New(rand.NewSource(19))
				var at vtime.Ticks
				for i := 0; i < 400; i++ {
					req := Request{Op: Op(rng.Intn(2)), Size: 512 << rng.Intn(6), Offset: int64(rng.Intn(1 << 20))}
					if rng.Intn(2) == 0 {
						req.Offset &^= int64(req.Size - 1) // aligned
					}
					got := one.SubmitOne(at, req)
					want, done := batch.Submit(at, []Request{req})
					if got != want[0] || got.Done != done {
						t.Fatalf("step %d %+v: SubmitOne %+v, Submit %+v done %v", i, req, got, want[0], done)
					}
					if a, b := one.Stats(), batch.Stats(); a != b {
						t.Fatalf("step %d: stats diverge:\n SubmitOne %+v\n Submit    %+v", i, a, b)
					}
					amin, amax, amean := one.Wear()
					bmin, bmax, bmean := batch.Wear()
					if amin != bmin || amax != bmax || amean != bmean {
						t.Fatalf("step %d: wear diverges: %d/%d/%v vs %d/%d/%v", i, amin, amax, amean, bmin, bmax, bmean)
					}
					// Mostly closed-loop, sometimes overlapping the previous
					// request so the NCQ ring and busy-until state matter.
					if rng.Intn(3) > 0 {
						at = got.Done
					} else {
						at += vtime.Ticks(rng.Intn(50)) * vtime.Microsecond
					}
				}
			})
		}
	}
}
