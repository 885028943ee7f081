package api

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// floatEdges are numbers at the seams of scanFloat's conversions: zero
// signs and underflow, the subnormal and overflow limits, a halfway case
// past 2^53, mantissas at and past 19 digits, the midpoint 1+2^-53 written
// out in full (ties to even: 1) and with a last digit past it that only a
// mantissa keeping its dropped digits sees (1+2^-52), and exponents either
// side of detailedPowersOfTen. The fuzz corpora hold each of them in a
// body.
var floatEdges = []string{
	"-0", "0e-400", "-0.0e+5", "5e-324", "4.9406564584124654e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623159e308", "-1e400",
	"9007199254740992", "9007199254740993", "1e23", "1e22", "8.988465674311579e307",
	"1234567890123456789", "9999999999999999999", "0.1234567890123456789",
	"12345678901234567890", "12345678901234567891", "100000000000000000000000",
	"0.000000000000000000000000000001", "0.10000000000000000555111512312578270211815834045410156250",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.000000000000000111022302462515654042363166809082031251",
	"1e30", "1e31", "1e-30", "1e-31", "1.5e30", "1.5e-31", "123456789e22", "123456789e-39",
}

// TestScanFloatMatchesParseFloat is the differential test of scanFloat
// against strconv.ParseFloat, the conversion encoding/json makes: on the
// edges and on seeded random floats formatted every way strconv writes
// them, scanFloat must give ParseFloat's bits and end where the number
// ends, and refuse exactly what ParseFloat refuses.
func TestScanFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := append([]string(nil), floatEdges...)
	for len(inputs) < 200000 {
		var v float64
		if rng.Intn(2) == 0 {
			v = math.Float64frombits(rng.Uint64()) // mostly far outside the table
		} else {
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			inputs = append(inputs, strconv.FormatFloat(v, 'g', -1, 64))
		case 1:
			inputs = append(inputs, strconv.FormatFloat(v, 'e', rng.Intn(25)-1, 64))
		default:
			inputs = append(inputs, strconv.FormatFloat(v, 'f', rng.Intn(25)-1, 64))
		}
	}
	converted := 0
	for _, s := range inputs {
		b := []byte(s + "]")
		var got float64
		end := scanFloat(b, 0, &got)
		want, err := strconv.ParseFloat(s, 64)
		switch {
		case err != nil && end >= 0:
			t.Fatalf("%s: scanFloat took %v, ParseFloat says %v", s, got, err)
		case err != nil:
		case end != len(s):
			t.Fatalf("%s: scanFloat ends at %d, want %d", s, end, len(s))
		case math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%s: scanFloat = %v (%#x), ParseFloat = %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if _, d := scanNumber(b, 0); end >= 0 {
			if _, ok := d.float(); ok {
				converted++
			}
		}
	}
	t.Logf("%d of %d numbers converted without ParseFloat", converted, len(inputs))
	if converted < len(inputs)/4 {
		t.Errorf("only %d of %d numbers converted without ParseFloat", converted, len(inputs))
	}
}

// TestPowersOfTenTable recomputes every copied row of detailedPowersOfTen:
// the 128-bit ⌊10^q·2^k⌋ whose top bit is set.
func TestPowersOfTenTable(t *testing.T) {
	if n := len(detailedPowersOfTen); n != detailedPowersOfTenMaxExp10-detailedPowersOfTenMinExp10+1 {
		t.Fatalf("%d rows for 1e%d..1e%d", n, detailedPowersOfTenMinExp10, detailedPowersOfTenMaxExp10)
	}
	ten := big.NewInt(10)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))
	for q := detailedPowersOfTenMinExp10; q <= detailedPowersOfTenMaxExp10; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		m := new(big.Int)
		if q >= 0 {
			if s := p.BitLen() - 128; s > 0 {
				m.Rsh(p, uint(s))
			} else {
				m.Lsh(p, uint(-s))
			}
		} else {
			// ⌊2^k / 10^-q⌋ has 128 or 129 bits for k = 127 + bitlen(10^-q).
			k := 127 + p.BitLen()
			if m.Quo(new(big.Int).Lsh(big.NewInt(1), uint(k)), p); m.BitLen() > 128 {
				m.Quo(new(big.Int).Lsh(big.NewInt(1), uint(k-1)), p)
			}
		}
		row := detailedPowersOfTen[q-detailedPowersOfTenMinExp10]
		hi, lo := new(big.Int).Rsh(m, 64).Uint64(), new(big.Int).And(m, mask).Uint64()
		if m.BitLen() != 128 || row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: row {%#x, %#x}, want {%#x, %#x}", q, row[0], row[1], lo, hi)
		}
	}
}

// TestScanFloatFastPathCount pins that every value of the body the socket
// benchmark sends converts without ParseFloat: a change that quietly sent
// them back there would pass every differential test and fail only a
// timing. It also counts the exact path's share of them.
func TestScanFloatFastPathCount(t *testing.T) {
	body := benchBody(t, 672)
	i := bytes.Index(body, []byte(`"history":[`))
	if i < 0 {
		t.Fatalf("no history in %.60q", body)
	}
	fast, exact := 0, 0
	var vals []float64
	end := scanArray(body, i+len(`"history":`), &vals, func(b []byte, i int, f *float64) int {
		_, d := scanNumber(b, i)
		if _, ok := d.float(); ok {
			fast++
		}
		if d.man>>53 == 0 && -22 <= d.exp10 && d.exp10 <= 22 {
			exact++
		}
		return scanFloat(b, i, f)
	})
	if end < 0 || len(vals) != 672 {
		t.Fatalf("scanned %d values (end %d), want 672", len(vals), end)
	}
	t.Logf("%d of 672 values convert without ParseFloat, %d of them exactly", fast, exact)
	if fast != 672 {
		t.Errorf("%d of 672 values convert without ParseFloat, want all", fast)
	}
}
