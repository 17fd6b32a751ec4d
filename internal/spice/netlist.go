package spice

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseNetlist reads a SPICE-flavored netlist and builds a Circuit.
//
// Supported syntax (case-insensitive, one element per line):
//
//   - comment                      ; comment
//     .model NAME nmos|pmos vt0=0.32 kp=300u w=240n l=100n [lambda=0.1] [n=1.3]
//     Rname n1 n2 VALUE              resistor (ohms)
//     Cname n1 n2 VALUE              capacitor (farads)
//     Vname n+ n- VALUE              DC voltage source
//     Iname n+ n- VALUE              DC current source
//     Mname nd ng ns nb MODEL [dvth=VALUE]
//     .end                           optional terminator
//
// Values accept engineering suffixes: f p n u m k meg g t (e.g. 10f,
// 300u, 1.5k). Node "0", "gnd" and "GND" are ground.
func ParseNetlist(r io.Reader) (*Circuit, error) {
	c := NewCircuit()
	models := map[string]*MOSModel{}
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, ";") {
			continue
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
			if line == "" {
				continue
			}
		}
		fields := strings.Fields(line)
		head := strings.ToLower(fields[0])
		var err error
		switch {
		case head == ".end":
			return c, scanner.Err()
		case head == ".model":
			err = parseModel(fields, models)
		case head[0] == 'r':
			err = parseTwoTerminal(c, fields, func(name, a, b string, v float64) {
				c.AddResistor(name, a, b, v)
			})
		case head[0] == 'c':
			err = parseTwoTerminal(c, fields, func(name, a, b string, v float64) {
				c.AddCapacitor(name, a, b, v)
			})
		case head[0] == 'v':
			err = parseTwoTerminal(c, fields, func(name, a, b string, v float64) {
				c.AddVSource(name, a, b, v)
			})
		case head[0] == 'i':
			err = parseTwoTerminal(c, fields, func(name, a, b string, v float64) {
				c.AddISource(name, a, b, v)
			})
		case head[0] == 'm':
			err = parseMOSFET(c, fields, models)
		default:
			err = fmt.Errorf("unknown element %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("spice: netlist line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseTwoTerminal(c *Circuit, fields []string, add func(name, a, b string, v float64)) (err error) {
	if len(fields) != 4 {
		return fmt.Errorf("%s: want NAME N1 N2 VALUE", fields[0])
	}
	v, err := ParseValue(fields[3])
	if err != nil {
		return err
	}
	defer func() {
		// AddResistor/AddCapacitor panic on invalid values and duplicate
		// names; surface those as parse errors.
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	add(strings.ToLower(fields[0]), fields[1], fields[2], v)
	return nil
}

func parseModel(fields []string, models map[string]*MOSModel) error {
	if len(fields) < 3 {
		return fmt.Errorf(".model: want NAME nmos|pmos params...")
	}
	name := strings.ToLower(fields[1])
	if _, dup := models[name]; dup {
		return fmt.Errorf(".model: duplicate model %q", name)
	}
	m := &MOSModel{}
	switch strings.ToLower(fields[2]) {
	case "nmos":
		m.Type = NMOS
	case "pmos":
		m.Type = PMOS
	default:
		return fmt.Errorf(".model: unknown type %q", fields[2])
	}
	for _, kv := range fields[3:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf(".model: bad parameter %q", kv)
		}
		v, err := ParseValue(parts[1])
		if err != nil {
			return err
		}
		switch strings.ToLower(parts[0]) {
		case "vt0":
			m.VT0 = v
		case "kp":
			m.KP = v
		case "w":
			m.W = v
		case "l":
			m.L = v
		case "lambda":
			m.Lambda = v
		case "n":
			m.N = v
		case "vt":
			m.Vt = v
		default:
			return fmt.Errorf(".model: unknown parameter %q", parts[0])
		}
	}
	if m.KP <= 0 || m.W <= 0 || m.L <= 0 {
		return fmt.Errorf(".model %s: kp, w and l must be positive", name)
	}
	models[name] = m
	return nil
}

func parseMOSFET(c *Circuit, fields []string, models map[string]*MOSModel) (err error) {
	if len(fields) < 6 {
		return fmt.Errorf("%s: want NAME ND NG NS NB MODEL [dvth=V]", fields[0])
	}
	model, ok := models[strings.ToLower(fields[5])]
	if !ok {
		return fmt.Errorf("%s: unknown model %q", fields[0], fields[5])
	}
	defer func() {
		// AddMOSFET panics on duplicate device names; surface that as a
		// parse error like the two-terminal elements do.
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	m := c.AddMOSFET(strings.ToLower(fields[0]), fields[1], fields[2], fields[3], fields[4], model)
	for _, kv := range fields[6:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 || strings.ToLower(parts[0]) != "dvth" {
			return fmt.Errorf("%s: unknown option %q", fields[0], kv)
		}
		v, err := ParseValue(parts[1])
		if err != nil {
			return err
		}
		m.DeltaVth = v
	}
	return nil
}

// ParseValue parses a number with an optional engineering suffix
// (f p n u m k meg g t) in SPICE tradition, e.g. "10f", "300u", "1.5k",
// "4meg".
func ParseValue(s string) (float64, error) {
	low := strings.ToLower(strings.TrimSpace(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(low, "meg"):
		mult, low = 1e6, strings.TrimSuffix(low, "meg")
	case strings.HasSuffix(low, "f"):
		mult, low = 1e-15, strings.TrimSuffix(low, "f")
	case strings.HasSuffix(low, "p"):
		mult, low = 1e-12, strings.TrimSuffix(low, "p")
	case strings.HasSuffix(low, "n"):
		mult, low = 1e-9, strings.TrimSuffix(low, "n")
	case strings.HasSuffix(low, "u"):
		mult, low = 1e-6, strings.TrimSuffix(low, "u")
	case strings.HasSuffix(low, "m"):
		mult, low = 1e-3, strings.TrimSuffix(low, "m")
	case strings.HasSuffix(low, "k"):
		mult, low = 1e3, strings.TrimSuffix(low, "k")
	case strings.HasSuffix(low, "g"):
		mult, low = 1e9, strings.TrimSuffix(low, "g")
	case strings.HasSuffix(low, "t"):
		mult, low = 1e12, strings.TrimSuffix(low, "t")
	}
	v, err := strconv.ParseFloat(low, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v * mult, nil
}
