package spice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestParseValue(t *testing.T) {
	cases := map[string]float64{
		"10":   10,
		"10f":  10e-15,
		"3p":   3e-12,
		"240n": 240e-9,
		"300u": 300e-6,
		"2.5m": 2.5e-3,
		"1.5k": 1500,
		"4meg": 4e6,
		"2g":   2e9,
		"1t":   1e12,
		"-0.5": -0.5,
	}
	for s, want := range cases {
		got, err := ParseValue(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("%q: got %v want %v", s, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "1.2.3", "10x"} {
		if _, err := ParseValue(bad); err == nil {
			t.Fatalf("%q should fail", bad)
		}
	}
}

func TestParseNetlistDivider(t *testing.T) {
	c, err := ParseNetlist(strings.NewReader(`
* a resistor divider
V1 in 0 3.0
R1 in mid 1k
R2 mid 0 2k  ; bottom leg
.end
`))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("mid")-2.0) > 1e-6 {
		t.Fatalf("divider mid = %v", op.Voltage("mid"))
	}
}

func TestParseNetlistInverter(t *testing.T) {
	c, err := ParseNetlist(strings.NewReader(`
.model nfast nmos vt0=0.35 kp=200u w=200n l=100n lambda=0.08 n=1.3
.model pstd  pmos vt0=0.35 kp=80u  w=200n l=100n lambda=0.1
Vdd vdd 0 1.0
Vin in 0 0
Mn out in 0 0 nfast
Mp out in vdd vdd pstd
`))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if op.Voltage("out") < 0.95 {
		t.Fatalf("inverter with low input should output high: %v", op.Voltage("out"))
	}
	// dvth option must apply.
	c2, err := ParseNetlist(strings.NewReader(`
.model nfast nmos vt0=0.35 kp=200u w=200n l=100n
V1 d 0 1.0
Vg g 0 1.0
M1 d g 0 0 nfast dvth=0.1
`))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := c2.Device("m1")
	if !ok {
		t.Fatal("m1 missing")
	}
	m, ok := d.(*MOSFET)
	if !ok {
		t.Fatalf("m1 is a %T, want a MOSFET", d)
	}
	if m.DeltaVth != 0.1 {
		t.Fatalf("dvth = %v", m.DeltaVth)
	}
}

func TestParseNetlistCapAndISource(t *testing.T) {
	c, err := ParseNetlist(strings.NewReader(`
I1 0 n 1m
R1 n 0 1k
C1 n 0 10f
`))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("n")-1.0) > 1e-6 {
		t.Fatalf("node = %v", op.Voltage("n"))
	}
}

func TestParseNetlistErrors(t *testing.T) {
	bad := []string{
		"R1 a 0",                                // missing value
		"R1 a 0 zz",                             // bad value
		"R1 a 0 -5",                             // negative resistance panics→error
		"Q1 a b c",                              // unknown element
		".model m1 njfet vt0=1 kp=1u w=1n l=1n", // unknown type
		".model m1 nmos vt0=1 kp=1u",            // missing geometry
		".model m1 nmos vt0=1 kp=1u w=1n l=1n zz=3",                                  // unknown param
		".model m1 nmos vt0=1 kp=1u w=1n l=1n\n.model m1 nmos vt0=1 kp=1u w=1n l=1n", // dup
		"M1 d g s b nomodel", // unknown model
		"M1 d g s b",         // short
		".model m1 nmos vt0=1 kp=1u w=1n l=1n\nM1 d g s b m1 foo=1", // bad option
		"R1 a 0 1k\nR1 b 0 1k", // duplicate name
	}
	for _, n := range bad {
		if _, err := ParseNetlist(strings.NewReader(n)); err == nil {
			t.Fatalf("netlist %q should fail", n)
		}
	}
}

func TestParseNetlistEndStops(t *testing.T) {
	c, err := ParseNetlist(strings.NewReader("R1 a 0 1k\n.end\ngarbage beyond end"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Device("r1"); !ok {
		t.Fatal("r1 missing")
	}
}

func TestParseNetlistFromReader(t *testing.T) {
	r := strings.NewReader("V1 a 0 2\nR1 a 0 1k\n")
	c, err := ParseNetlist(r)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("a")-2) > 1e-9 {
		t.Fatal("reader netlist broken")
	}
}

// ciInverter is the inverter-plus-RC netlist that CI's spicecli step
// runs.
const ciInverter = `* CMOS inverter driving an RC load
.model nch nmos vt0=0.32 kp=300u w=240n l=100n
.model pch pmos vt0=0.35 kp=80u w=480n l=100n
vdd vdd 0 1
vin in 0 0.3
mn out in 0 0 nch
mp out in vdd vdd pch
rl out load 10k
cl load 0 10f
.end
`

// TestNetlistSolveBitsPinned pins the Float64bits of every node voltage
// (in sorted node order) that three netlist runs produce: the DC
// operating point, a 51-point sweep of vin, and a backward-Euler
// transient in which vin steps from 0.3 V to 0.9 V while the RC load,
// started at 0 V by an initial condition, charges and then discharges.
// The digests are bitsDigest values recorded on amd64; a change that
// moves these bits on purpose records new ones and says so in
// CHANGES.md.
func TestNetlistSolveBitsPinned(t *testing.T) {
	// The Go spec lets a compiler fuse x*y + z into one rounding, which
	// moves low bits of the solves; amd64 never fuses.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	parse := func(t *testing.T) (*Circuit, []string) {
		c, err := ParseNetlist(strings.NewReader(ciInverter))
		if err != nil {
			t.Fatal(err)
		}
		nodes := c.NodeNames()
		sort.Strings(nodes)
		return c, nodes
	}
	appendVoltages := func(vs []float64, op *OperatingPoint, nodes []string) []float64 {
		for _, n := range nodes {
			vs = append(vs, op.Voltage(n))
		}
		return vs
	}
	cases := []struct {
		name   string
		run    func(c *Circuit, nodes []string) ([]float64, error)
		points int
		digest string
	}{
		{"op", func(c *Circuit, nodes []string) ([]float64, error) {
			op, err := c.SolveDC(nil)
			if err != nil {
				return nil, err
			}
			return appendVoltages(nil, op, nodes), nil
		}, 1, "550397181e4cbd17914cd188a6a4c1b6dfc8ce848268638b8d97930884c815df"},
		{"sweep", func(c *Circuit, nodes []string) ([]float64, error) {
			var vs []float64
			err := c.Sweep("vin", 0, 1, 51, nil, func(_ float64, op *OperatingPoint) bool {
				vs = appendVoltages(vs, op, nodes)
				return true
			})
			return vs, err
		}, 51, "ac76ea425ee9c9b4ace0d3ec77fc7087dfaa6267199f539db6acf88b3719cd16"},
		{"tran", func(c *Circuit, nodes []string) ([]float64, error) {
			src, err := c.VSourceByName("vin")
			if err != nil {
				return nil, err
			}
			src.Waveform = StepWaveform(0.3, 0.9, 200e-12, 20e-12)
			var vs []float64
			err = c.SolveTran(TranOptions{
				Stop: 500e-12, Step: 5e-12,
				InitialConditions: map[string]float64{"load": 0},
			}, func(p TranPoint) bool {
				vs = appendVoltages(vs, p.OP, nodes)
				return true
			})
			return vs, err
		}, 101, "cb51d69c7864b6a4ed8fd133854300058da27dfe790ef285e9866ab80ff74163"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, nodes := parse(t)
			vs, err := tc.run(c, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.points * len(nodes); len(vs) != want {
				t.Fatalf("%d voltages, want %d", len(vs), want)
			}
			if got := bitsDigest(vs); got != tc.digest {
				t.Errorf("node voltage bits over %d points: digest %s, want %s", tc.points, got, tc.digest)
			}
		})
	}
}

// bitsDigest is the SHA-256, in hex, of the little-endian Float64bits
// of vs, in order.
func bitsDigest(vs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
