package spice

import (
	"math"
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
