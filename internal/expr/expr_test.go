package expr

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func env() *Env {
	return &Env{
		Vars: map[string]any{
			"model_name":   "linear_regression",
			"model_domain": "UberX",
			"environment":  "production",
			"metrics": map[string]any{
				"r2":   0.93,
				"bias": 0.05,
				"mae":  4.2,
			},
			"epoch":      int64(12),
			"deprecated": false,
		},
	}
}

func evalOK(t *testing.T, src string) any {
	t.Helper()
	v, err := Eval(src, env())
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestLiterals(t *testing.T) {
	cases := map[string]any{
		"42":       42.0,
		"3.14":     3.14,
		".5":       0.5,
		"'hello'":  "hello",
		`"world"`:  "world",
		"true":     true,
		"false":    false,
		"null":     nil,
		`'it\'s'`:  "it's",
		`"a\nb"`:   "a\nb",
		`'tab\tx'`: "tab\tx",
	}
	for src, want := range cases {
		if got := evalOK(t, src); got != want {
			t.Errorf("Eval(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestPaperListing1Condition(t *testing.T) {
	// The model-selection rule from paper Listing 1.
	got := evalOK(t, `model_name == "linear_regression" && model_domain == "UberX" && metrics["r2"] <= 0.9`)
	if got != false { // r2 = 0.93 > 0.9
		t.Fatalf("listing 1 condition = %v", got)
	}
}

func TestPaperListing2Condition(t *testing.T) {
	// The action rule from paper Listing 2.
	got := evalOK(t, `model_domain == "UberX" && metrics.bias <= 0.1 && metrics.bias >= -0.1`)
	if got != true {
		t.Fatalf("listing 2 condition = %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2*3":         7,
		"(1 + 2) * 3":     9,
		"10 / 4":          2.5,
		"10 % 3":          1,
		"-5 + 3":          -2,
		"--5":             5,
		"2 * epoch":       24,
		"metrics.mae - 4": 0.2,
	}
	for src, want := range cases {
		got := evalOK(t, src)
		if f, ok := got.(float64); !ok || math.Abs(f-want) > 1e-9 {
			t.Errorf("Eval(%q) = %#v, want %v", src, got, want)
		}
	}
}

func TestStringConcat(t *testing.T) {
	if got := evalOK(t, `"fore" + 'casting'`); got != "forecasting" {
		t.Fatalf("concat = %#v", got)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := map[string]bool{
		"1 < 2":                         true,
		"2 <= 2":                        true,
		"3 > 4":                         false,
		"4 >= 4":                        true,
		"'a' < 'b'":                     true,
		"'b' <= 'a'":                    false,
		"1 == 1.0":                      true,
		"1 != 2":                        true,
		"'x' == 'x'":                    true,
		"'x' == 1":                      false,
		"null == null":                  true,
		"null == 0":                     false,
		"true && false":                 false,
		"true || false":                 true,
		"!true":                         false,
		"not false":                     true,
		"true and true":                 true,
		"false or true":                 true,
		"epoch == 12":                   true,
		"deprecated == false":           true,
		"metrics.r2 > 0.9 && epoch > 5": true,
	}
	for src, want := range cases {
		if got := evalOK(t, src); got != want {
			t.Errorf("Eval(%q) = %#v, want %v", src, got, want)
		}
	}
}

func TestListsAndInOperator(t *testing.T) {
	cases := map[string]any{
		`model_domain in ["UberX", "UberPool"]`:   true,
		`model_domain in ["UberBlack"]`:           false,
		`"x" in []`:                               false,
		`2 in [1, 2, 3]`:                          true,
		`4 in [1, 2, 3]`:                          false,
		`epoch in [11, 12]`:                       true,
		`"bias" in metrics`:                       true,
		`"missing" in metrics`:                    false,
		`model_domain in ["UberX"] && epoch > 10`: true,
		`1 + 1 in [2]`:                            true, // + binds tighter than in
	}
	for src, want := range cases {
		if got := evalOK(t, src); got != want {
			t.Errorf("Eval(%q) = %#v, want %#v", src, got, want)
		}
	}
	// Errors.
	for _, src := range []string{
		"1 in 2",          // not a container
		"1 in metrics",    // non-string key into object
		"x in [1",         // unterminated list
		`[1,2] in [1, 2]`, // lists are not comparable elements, just false
	} {
		if _, err := Eval(src, env()); err == nil && src != `[1,2] in [1, 2]` {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side references an unknown variable; short-circuit must
	// prevent evaluation.
	if got := evalOK(t, "false && bogus_variable > 1"); got != false {
		t.Fatalf("&& short circuit = %v", got)
	}
	if got := evalOK(t, "true || bogus_variable > 1"); got != true {
		t.Fatalf("|| short circuit = %v", got)
	}
	// Without short circuit the unknown variable is an error.
	if _, err := Eval("true && bogus_variable > 1", env()); err == nil {
		t.Fatal("unknown variable on evaluated branch did not error")
	}
}

func TestMemberAndIndexEquivalence(t *testing.T) {
	a := evalOK(t, "metrics.bias")
	b := evalOK(t, `metrics["bias"]`)
	if a != b {
		t.Fatalf("metrics.bias = %v, metrics[\"bias\"] = %v", a, b)
	}
}

func TestBuiltins(t *testing.T) {
	cases := map[string]any{
		"abs(-3.5)":                        3.5,
		"min(3, 1, 2)":                     1.0,
		"max(3, 1, 2)":                     3.0,
		`has(metrics, "r2")`:               true,
		`has(metrics, "missing")`:          false,
		`contains("forecasting", "cast")`:  true,
		`startsWith(model_domain, "Uber")`: true,
		`abs(metrics.bias) <= 0.1`:         true,
		"floor(2.7)":                       2.0,
		"ceil(2.1)":                        3.0,
		"round(2.5)":                       3.0,
		"round(-2.5)":                      -3.0,
	}
	for src, want := range cases {
		if got := evalOK(t, src); got != want {
			t.Errorf("Eval(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestCustomFunctions(t *testing.T) {
	e := env()
	e.Funcs = map[string]Func{
		"double": func(args []any) (any, error) {
			f, ok := normalize(args[0]).(float64)
			if !ok {
				return nil, fmt.Errorf("not a number")
			}
			return 2 * f, nil
		},
	}
	v, err := Eval("double(epoch) == 24", e)
	if err != nil {
		t.Fatal(err)
	}
	if v != true {
		t.Fatalf("double(epoch) == 24 evaluated to %v", v)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "a.", "a[", "a[1", "f(", "f(1,", "1 = 2",
		"a & b", "a | b", "'unterminated", `"bad \q escape"`, "@", "1..2",
		"3.", "max(,)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error type = %T", src, err)
			}
		}
	}
}

// TestNestingBound checks that every shape of deep nesting is refused
// with a syntax error rather than recursing until the stack overflows.
func TestNestingBound(t *testing.T) {
	const n = 10_000
	deep := map[string]string{
		"parens":  strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"lists":   strings.Repeat("[", n) + strings.Repeat("]", n),
		"calls":   strings.Repeat("abs(", n) + "1" + strings.Repeat(")", n),
		"unary":   strings.Repeat("!", n) + "true",
		"chain":   "1" + strings.Repeat(" + 1", n),
		"members": "metrics" + strings.Repeat(".r2", n),
		"indexes": "metrics" + strings.Repeat(`["r2"]`, n),
	}
	for name, src := range deep {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: Parse of %d levels: err = %v, want a *SyntaxError", name, n, err)
		}
	}
	shallow := strings.Repeat("(", 100) + "1" + strings.Repeat(" + 1)", 100)
	if v, err := Eval(shallow, nil); err != nil || v != 101.0 {
		t.Errorf("100 levels: %v, %v; want 101", v, err)
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"unknown_var",
		"metrics.nope",
		`metrics["nope"]`,
		"model_name.field", // member of non-object
		"metrics[42]",      // non-string index
		"1 / 0",
		"5 % 0",
		"!'str'",
		"-'str'",
		"1 && true",
		"'a' < 1",
		"unknownFn(1)",
		"model_name + 1", // string + number
	}
	for _, src := range bad {
		if _, err := Eval(src, env()); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		} else {
			var ee *EvalError
			if !errors.As(err, &ee) {
				t.Errorf("Eval(%q) error type = %T (%v)", src, err, err)
			}
		}
	}
}

func TestEvalBool(t *testing.T) {
	b, err := EvalBool("metrics.bias <= 0.1", env())
	if err != nil || !b {
		t.Fatalf("EvalBool = %v, %v", b, err)
	}
	if _, err := EvalBool("1 + 1", env()); err == nil {
		t.Fatal("EvalBool accepted a numeric expression")
	}
}

func TestPrecedence(t *testing.T) {
	// || binds loosest, then &&, then comparisons, then + -, then * /.
	cases := map[string]any{
		"true || false && false": true, // && first
		"1 + 2 < 2 + 2":          true, // + before <
		"2 + 3 * 4 == 14":        true, // * before +
		"false == 1 > 2":         true, // > before ==
	}
	for src, want := range cases {
		if got := evalOK(t, src); got != want {
			t.Errorf("Eval(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestIdents(t *testing.T) {
	n := MustParse(`model_name == "x" && metrics.bias < threshold && has(metadata, "k")`)
	got := Idents(n)
	sort.Strings(got)
	want := []string{"metadata", "metrics", "model_name", "threshold"}
	if len(got) != len(want) {
		t.Fatalf("Idents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Idents = %v, want %v", got, want)
		}
	}
}

func TestNodeString(t *testing.T) {
	// String must render back to something that parses to the same result.
	srcs := []string{
		`model_name == "linear_regression" && metrics["r2"] <= 0.9`,
		"abs(metrics.bias) <= 0.1 || epoch > 10",
		"-(1 + 2) * 3 < 0",
	}
	for _, src := range srcs {
		n := MustParse(src)
		rendered := n.String()
		n2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, src, err)
		}
		v1, err1 := n.eval(env())
		v2, err2 := n2.eval(env())
		if (err1 == nil) != (err2 == nil) || v1 != v2 {
			t.Fatalf("%q and its rendering %q disagree: %v/%v vs %v/%v",
				src, rendered, v1, err1, v2, err2)
		}
	}
}

// FuzzExpr: whatever parses prints as source that parses back to the same
// printed form and the same evaluation, and evaluation never panics. The
// seed corpus in testdata/fuzz/FuzzExpr holds the rule shapes in use.
func FuzzExpr(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		printed := n.String()
		n2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := n2.String(); again != printed {
			t.Fatalf("%q prints as %q, which prints as %q", src, printed, again)
		}
		v1, err1 := EvalNode(n, env())
		v2, err2 := EvalNode(n2, env())
		if fmt.Sprint(v1) != fmt.Sprint(v2) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q evaluates to %v (%v), its printed form %q to %v (%v)", src, v1, err1, printed, v2, err2)
		}
	})
}

// Property: integer arithmetic expressions evaluate exactly.
func TestQuickArithmetic(t *testing.T) {
	f := func(a, b int16) bool {
		src := fmt.Sprintf("%d + %d * 2", a, b)
		v, err := Eval(src, nil)
		if err != nil {
			return false
		}
		return v == float64(a)+float64(b)*2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison operators agree with Go's on random pairs.
func TestQuickComparisons(t *testing.T) {
	f := func(a, b int16) bool {
		for _, tc := range []struct {
			op   string
			want bool
		}{
			{"<", a < b}, {"<=", a <= b}, {">", a > b}, {">=", a >= b},
			{"==", a == b}, {"!=", a != b},
		} {
			v, err := Eval(fmt.Sprintf("%d %s %d", a, tc.op, b), nil)
			if err != nil || v != tc.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: parsing never panics on arbitrary input.
func TestQuickParseNoPanic(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", src, r)
			}
		}()
		Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
