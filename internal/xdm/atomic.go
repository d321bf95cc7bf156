package xdm

import (
	"math"
	"strconv"
	"strings"
	"time"
)

// Atomic is an atomic value: a dynamic type code plus a payload. The payload
// field used depends on the type:
//
//	B — xs:boolean
//	I — xs:integer; the calendar types (epoch in ns, with a timezone flag in F);
//	    xdt:yearMonthDuration (months); xdt:dayTimeDuration (ns)
//	F — xs:double, xs:float, xs:decimal (see note); xs:duration seconds part
//	S — xs:string, xs:untypedAtomic, xs:anyURI, hex/base64 binary (raw bytes),
//	    and the original lexical form of calendar values
//	Q — xs:QName / xs:NOTATION
//
// Note on xs:decimal: values are kept as (I int64, scaled) when they fit and
// fall back to float64 otherwise; this preserves exact arithmetic for the
// money-style decimals that appear in practice while keeping the value one
// machine word. Dec reports whether I holds a scaled decimal.
type Atomic struct {
	T TypeCode
	B bool
	// Dec marks a decimal held exactly: value = I / 10^Scale.
	Dec   bool
	Scale uint8
	I     int64
	F     float64
	S     string
	Q     QName
}

// Item is a member of an XDM sequence: either an Atomic value or a Node.
type Item interface {
	// IsNode distinguishes the two kinds of item without reflection.
	IsNode() bool
}

// IsNode reports that an atomic value is not a node.
func (Atomic) IsNode() bool { return false }

// Sequence is a materialized XDM sequence. Nested sequences never occur; the
// data model flattens them on construction.
type Sequence []Item

// --- constructors ---

// NewString returns an xs:string value.
func NewString(s string) Atomic { return Atomic{T: TString, S: s} }

// NewUntyped returns an xs:untypedAtomic value (the typed value of
// schema-less nodes).
func NewUntyped(s string) Atomic { return Atomic{T: TUntyped, S: s} }

// NewBoolean returns an xs:boolean value.
func NewBoolean(b bool) Atomic { return Atomic{T: TBoolean, B: b} }

// True and False are the two boolean values.
var (
	True  = NewBoolean(true)
	False = NewBoolean(false)
)

// NewInteger returns an xs:integer value.
func NewInteger(i int64) Atomic { return Atomic{T: TInteger, I: i} }

// NewDouble returns an xs:double value.
func NewDouble(f float64) Atomic { return Atomic{T: TDouble, F: f} }

// NewFloat returns an xs:float value.
func NewFloat(f float64) Atomic { return Atomic{T: TFloat, F: float64(float32(f))} }

// NewDecimal returns an exact xs:decimal value i / 10^scale.
func NewDecimal(i int64, scale uint8) Atomic {
	return Atomic{T: TDecimal, Dec: true, I: i, Scale: scale}
}

// NewDecimalFloat returns an xs:decimal approximated by a float64, used when
// a computation leaves the exact int64-scaled range.
func NewDecimalFloat(f float64) Atomic { return Atomic{T: TDecimal, F: f} }

// NewAnyURI returns an xs:anyURI value.
func NewAnyURI(s string) Atomic { return Atomic{T: TAnyURI, S: s} }

// NewQName returns an xs:QName value.
func NewQName(q QName) Atomic { return Atomic{T: TQName, Q: q} }

// NewDateTime returns an xs:dateTime from a time.Time; lex is the original
// lexical form (may be empty, in which case one is derived on demand).
func NewDateTime(t time.Time, lex string) Atomic {
	return Atomic{T: TDateTime, I: t.UnixNano(), S: lex}
}

// NewDate returns an xs:date anchored at midnight UTC of the given day.
func NewDate(t time.Time, lex string) Atomic {
	return Atomic{T: TDate, I: t.UnixNano(), S: lex}
}

// NewTime returns an xs:time as nanoseconds since midnight.
func NewTime(ns int64, lex string) Atomic { return Atomic{T: TTime, I: ns, S: lex} }

// NewYearMonthDuration returns an xdt:yearMonthDuration of the given months.
func NewYearMonthDuration(months int64) Atomic {
	return Atomic{T: TYearMonthDuration, I: months}
}

// NewDayTimeDuration returns an xdt:dayTimeDuration of the given duration.
func NewDayTimeDuration(d time.Duration) Atomic {
	return Atomic{T: TDayTimeDuration, I: int64(d)}
}

// --- accessors ---

// AsFloat returns the numeric value as float64. Valid for numeric types.
func (a Atomic) AsFloat() float64 {
	switch a.T {
	case TInteger:
		return float64(a.I)
	case TDecimal:
		if a.Dec {
			return float64(a.I) / pow10f(a.Scale)
		}
		return a.F
	default:
		return a.F
	}
}

// AsInt returns the value as int64, truncating decimals/doubles toward zero.
func (a Atomic) AsInt() int64 {
	switch a.T {
	case TInteger:
		return a.I
	case TDecimal:
		if a.Dec {
			return a.I / pow10i(a.Scale)
		}
		return int64(a.F)
	default:
		return int64(a.F)
	}
}

func pow10f(n uint8) float64 {
	f := 1.0
	for ; n > 0; n-- {
		f *= 10
	}
	return f
}

func pow10i(n uint8) int64 {
	v := int64(1)
	for ; n > 0; n-- {
		v *= 10
	}
	return v
}

// Lexical returns the canonical lexical representation of the value, i.e.
// its fn:string() form.
func (a Atomic) Lexical() string {
	switch a.T {
	case TString, TUntyped, TAnyURI, THexBinary, TBase64Binary, TNotation:
		return a.S
	case TBoolean:
		if a.B {
			return "true"
		}
		return "false"
	case TInteger:
		return strconv.FormatInt(a.I, 10)
	case TDecimal:
		return a.decimalLexical()
	case TDouble, TFloat:
		return floatLexical(a.F, a.T == TFloat)
	case TQName:
		return a.Q.String()
	case TDateTime:
		if a.S != "" {
			return a.S
		}
		return time.Unix(0, a.I).UTC().Format("2006-01-02T15:04:05")
	case TDate:
		if a.S != "" {
			return a.S
		}
		return time.Unix(0, a.I).UTC().Format("2006-01-02")
	case TTime:
		if a.S != "" {
			return a.S
		}
		ns := a.I
		return time.Unix(0, ns).UTC().Format("15:04:05")
	case TGYearMonth, TGYear, TGMonthDay, TGDay, TGMonth:
		return a.S
	case TYearMonthDuration:
		return ymDurationLexical(a.I)
	case TDayTimeDuration:
		return dtDurationLexical(a.I)
	case TDuration:
		if a.S != "" {
			return a.S
		}
		return ymDurationLexical(a.I) // best effort
	default:
		return a.S
	}
}

func (a Atomic) decimalLexical() string {
	if !a.Dec {
		s := strconv.FormatFloat(a.F, 'f', -1, 64)
		return s
	}
	if a.Scale == 0 {
		return strconv.FormatInt(a.I, 10)
	}
	neg := a.I < 0
	u := a.I
	if neg {
		u = -u
	}
	s := strconv.FormatInt(u, 10)
	for len(s) <= int(a.Scale) {
		s = "0" + s
	}
	dot := len(s) - int(a.Scale)
	out := s[:dot] + "." + s[dot:]
	out = strings.TrimRight(out, "0")
	out = strings.TrimSuffix(out, ".")
	if out == "" || out == "-" {
		out = "0"
	}
	if neg {
		out = "-" + out
	}
	return out
}

// floatLexical renders xs:double, or xs:float from its 32-bit shortest
// digits, per XPath F&O 3.1 §19.1.2.2: NaN, INF, -INF; zero as 0 or -0;
// magnitudes in [1e-6, 1e6) as a decimal without exponent (0.000001,
// 15.5); everything else as a mantissa with at least one fraction digit
// and a bare exponent (1.0E6, -2.5E20, 1.0E-7).
func floatLexical(f float64, isFloat bool) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	}
	bits := 64
	if isFloat {
		bits = 32
	}
	if a := math.Abs(f); a == 0 || (a >= 1e-6 && a < 1e6) {
		return strconv.FormatFloat(f, 'f', -1, bits)
	}
	mant, exp, _ := strings.Cut(strconv.FormatFloat(f, 'E', -1, bits), "E")
	if !strings.Contains(mant, ".") {
		mant += ".0"
	}
	e, _ := strconv.Atoi(exp)
	return mant + "E" + strconv.Itoa(e)
}

func ymDurationLexical(months int64) string {
	if months == 0 {
		return "P0M"
	}
	neg := months < 0
	if neg {
		months = -months
	}
	y, m := months/12, months%12
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteByte('P')
	if y > 0 {
		b.WriteString(strconv.FormatInt(y, 10))
		b.WriteByte('Y')
	}
	if m > 0 || y == 0 {
		b.WriteString(strconv.FormatInt(m, 10))
		b.WriteByte('M')
	}
	return b.String()
}

func dtDurationLexical(ns int64) string {
	if ns == 0 {
		return "PT0S"
	}
	neg := ns < 0
	if neg {
		ns = -ns
	}
	d := ns / int64(24*time.Hour)
	ns %= int64(24 * time.Hour)
	h := ns / int64(time.Hour)
	ns %= int64(time.Hour)
	m := ns / int64(time.Minute)
	ns %= int64(time.Minute)
	secs := float64(ns) / float64(time.Second)
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteByte('P')
	if d > 0 {
		b.WriteString(strconv.FormatInt(d, 10))
		b.WriteByte('D')
	}
	if h > 0 || m > 0 || secs > 0 {
		b.WriteByte('T')
		if h > 0 {
			b.WriteString(strconv.FormatInt(h, 10))
			b.WriteByte('H')
		}
		if m > 0 {
			b.WriteString(strconv.FormatInt(m, 10))
			b.WriteByte('M')
		}
		if secs > 0 {
			b.WriteString(strconv.FormatFloat(secs, 'f', -1, 64))
			b.WriteByte('S')
		}
	} else if d == 0 {
		b.WriteString("T0S")
	}
	return b.String()
}
