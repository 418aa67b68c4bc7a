package geom

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/device"
	"repro/internal/sram"
	"repro/internal/units"
)

func tech() *device.Technology { return device.Default65nm() }

func org(t *testing.T, cfg cachecfg.Config) Array {
	t.Helper()
	a, err := Organize(cfg, sram.DefaultCell())
	if err != nil {
		t.Fatalf("Organize(%v): %v", cfg, err)
	}
	return a
}

func TestOrganizeCoversAllBits(t *testing.T) {
	for _, size := range append(cachecfg.L1Sizes(), cachecfg.L2Sizes()...) {
		for _, cfg := range []cachecfg.Config{cachecfg.L1(size), cachecfg.L2(size)} {
			a := org(t, cfg)
			want := cfg.DataBits() + cfg.TagArrayBits()
			if a.TotalBits() < want {
				t.Errorf("%v: organized %d bits < required %d", cfg, a.TotalBits(), want)
			}
			// Rounding should not waste more than ~5%.
			if float64(a.TotalBits()) > 1.05*float64(want) {
				t.Errorf("%v: organized %d bits wastes >5%% over %d", cfg, a.TotalBits(), want)
			}
		}
	}
}

func TestOrganizeRejectsInvalid(t *testing.T) {
	_, err := Organize(cachecfg.Config{SizeBytes: 100}, sram.DefaultCell())
	if err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSubarrayBounds(t *testing.T) {
	for _, size := range cachecfg.L2Sizes() {
		a := org(t, cachecfg.L2(size))
		if a.Rows > 512 || a.Cols > 1024 {
			t.Errorf("%v: subarray %dx%d too large — wordline/bitline unbounded", a.Cfg, a.Rows, a.Cols)
		}
		if a.NSub > 512 {
			t.Errorf("%v: %d subarrays exceeds bound", a.Cfg, a.NSub)
		}
	}
}

func TestBiggerCacheMoreSubarraysNotLongerBitlines(t *testing.T) {
	small := org(t, cachecfg.L2(256*cachecfg.KB))
	big := org(t, cachecfg.L2(4*cachecfg.MB))
	if big.NSub <= small.NSub {
		t.Errorf("subarray count should grow with capacity: %d vs %d", big.NSub, small.NSub)
	}
	tc := tech()
	op := device.OP(0.3, 12)
	if big.BitlineLength(tc, op) > 2*small.BitlineLength(tc, op) {
		t.Error("bitline length should stay roughly constant with capacity")
	}
}

func TestWireLengthsScaleWithTox(t *testing.T) {
	tc := tech()
	a := org(t, cachecfg.L1(16*cachecfg.KB))
	s := tc.ScaleFactor(device.OP(0.3, 14))
	wl10 := a.WordlineLength(tc, device.OP(0.3, 10))
	wl14 := a.WordlineLength(tc, device.OP(0.3, 14))
	if !units.ApproxEqual(wl14/wl10, s, 1e-9, 0) {
		t.Errorf("wordline scale = %v, want %v", wl14/wl10, s)
	}
	bl10 := a.BitlineLength(tc, device.OP(0.3, 10))
	bl14 := a.BitlineLength(tc, device.OP(0.3, 14))
	if !units.ApproxEqual(bl14/bl10, s, 1e-9, 0) {
		t.Errorf("bitline scale = %v, want %v", bl14/bl10, s)
	}
	a10 := a.AreaM2(tc, device.OP(0.3, 10))
	a14 := a.AreaM2(tc, device.OP(0.3, 14))
	if !units.ApproxEqual(a14/a10, s*s, 1e-9, 0) {
		t.Errorf("area scale = %v, want %v", a14/a10, s*s)
	}
}

func TestAreaMagnitude(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 10)
	// A 16KB 65nm cache should be of order 0.1 mm^2 (cells ~0.08 mm^2 plus
	// overhead), certainly within (0.01, 1) mm^2.
	a := org(t, cachecfg.L1(16*cachecfg.KB))
	areaMM2 := a.AreaM2(tc, op) / 1e-6
	if areaMM2 < 0.01 || areaMM2 > 1 {
		t.Errorf("16KB area = %v mm^2, want 0.01..1", areaMM2)
	}
	// A 1MB L2 should be tens of times larger.
	l2 := org(t, cachecfg.L2(1*cachecfg.MB))
	if r := l2.AreaM2(tc, op) / a.AreaM2(tc, op); r < 20 {
		t.Errorf("1MB/16KB area ratio = %v, want >= 20", r)
	}
}

func TestActiveSubarraysAndSenseAmps(t *testing.T) {
	a := org(t, cachecfg.L1(16*cachecfg.KB))
	act := a.ActiveSubarrays()
	if act < 1 || act > a.NSub {
		t.Errorf("active subarrays = %d of %d", act, a.NSub)
	}
	sa := a.SenseAmps()
	if sa < a.Cfg.OutputBits {
		t.Errorf("sense amps %d cannot deliver %d output bits", sa, a.Cfg.OutputBits)
	}
	// One sense amp per MuxDegree columns per subarray.
	wantPerSub := (a.Cols + a.MuxDegree - 1) / a.MuxDegree
	if sa != wantPerSub*a.NSub {
		t.Errorf("sense amps = %d, want %d", sa, wantPerSub*a.NSub)
	}
}

func TestDecoderBits(t *testing.T) {
	a := org(t, cachecfg.L1(16*cachecfg.KB))
	if got := a.RowDecodeBits(); (1 << got) < a.Rows {
		t.Errorf("row decode bits %d cannot address %d rows", got, a.Rows)
	}
	if got := a.SubarraySelectBits(); (1 << got) < a.NSub {
		t.Errorf("select bits %d cannot address %d subarrays", got, a.NSub)
	}
	if a.AddressBits() != a.RowDecodeBits()+a.SubarraySelectBits() {
		t.Error("AddressBits must sum its parts")
	}
}

func TestBusLengthGrowsWithCapacity(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 12)
	prev := 0.0
	for _, size := range cachecfg.L2Sizes() {
		a := org(t, cachecfg.L2(size))
		bl := a.BusLength(tc, op)
		if bl <= prev {
			t.Errorf("bus length not increasing at %v: %v <= %v", a.Cfg, bl, prev)
		}
		prev = bl
	}
}

func TestStringFormat(t *testing.T) {
	a := org(t, cachecfg.L1(16*cachecfg.KB))
	s := a.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestPow2Floor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 127: 64, 128: 128, 1000: 512}
	for in, want := range cases {
		if got := pow2Floor(in); got != want {
			t.Errorf("pow2Floor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 128: 7}
	for in, want := range cases {
		if got := log2Ceil(in); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}
