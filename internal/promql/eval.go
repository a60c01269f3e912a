package promql

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// Sample is one element of an instant vector.
type Sample struct {
	Labels telemetry.Labels
	Value  float64
}

// Vector is the result of an instant query.
type Vector []Sample

// Engine evaluates parsed expressions against any telemetry Querier
// (typically *telemetry.Store, whose Select hands back immutable snapshots
// served from the postings index).
type Engine struct {
	Store telemetry.Querier
}

// Query parses and evaluates in one step.
func (e *Engine) Query(input string, at sim.Time) (Vector, error) {
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.Eval(expr, at)
}

// Eval evaluates the expression at an instant. Scalars evaluate to a
// single unlabeled sample.
func (e *Engine) Eval(expr Expr, at sim.Time) (Vector, error) {
	switch n := expr.(type) {
	case *NumberLit:
		return Vector{{Value: n.Value}}, nil
	case *VectorSelector:
		return e.evalSelector(n, at), nil
	case *RangeCall:
		return e.evalRangeCall(n, at)
	case *Aggregate:
		return e.evalAggregate(n, at)
	case *BinaryOp:
		return e.evalBinary(n, at)
	default:
		return nil, fmt.Errorf("promql: unknown expression %T", expr)
	}
}

// selectSeries applies equality matchers via the store and inequality
// matchers post-hoc.
func (e *Engine) selectSeries(sel *VectorSelector) []*telemetry.Series {
	eq, neq := matchersOf(sel)
	series := e.Store.Select(sel.Metric, eq...)
	if len(neq) == 0 {
		return series
	}
	out := series[:0:0]
	for _, s := range series {
		keep := true
		for _, m := range neq {
			if s.Labels.Get(m.Name) == m.Value {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, s)
		}
	}
	return out
}

func (e *Engine) evalSelector(sel *VectorSelector, at sim.Time) Vector {
	var out Vector
	for _, s := range e.selectSeries(sel) {
		if v, ok := s.At(at); ok {
			out = append(out, Sample{Labels: s.Labels, Value: v})
		}
	}
	return out
}

func (e *Engine) evalRangeCall(call *RangeCall, at sim.Time) (Vector, error) {
	if call.Range <= 0 {
		return nil, fmt.Errorf("promql: non-positive range")
	}
	from := at - call.Range
	if from < 0 {
		from = 0
	}
	var out Vector
	for _, s := range e.selectSeries(call.Selector) {
		win := s.Range(from, at+1) // inclusive right edge, Prometheus-style
		if len(win) == 0 {
			continue
		}
		var v float64
		switch call.Func {
		case "avg_over_time":
			v = telemetry.Mean(win)
		case "max_over_time":
			v = telemetry.Max(win)
		case "min_over_time":
			v = telemetry.Min(win)
		case "sum_over_time":
			v = 0
			for _, smp := range win {
				v += smp.V
			}
		case "count_over_time":
			v = float64(len(win))
		case "quantile_over_time":
			v = telemetry.Percentile(win, call.Param*100)
		case "rate", "delta":
			if len(win) < 2 {
				continue
			}
			first, last := win[0], win[len(win)-1]
			span := (last.T - first.T).Seconds()
			if span <= 0 {
				continue
			}
			if call.Func == "rate" {
				v = (last.V - first.V) / span
			} else {
				v = last.V - first.V
			}
		default:
			return nil, fmt.Errorf("promql: unknown function %s", call.Func)
		}
		out = append(out, Sample{Labels: s.Labels, Value: v})
	}
	return out, nil
}

func (e *Engine) evalAggregate(agg *Aggregate, at sim.Time) (Vector, error) {
	inner, err := e.Eval(agg.Expr, at)
	if err != nil {
		return nil, err
	}
	type bucket struct {
		labels telemetry.Labels
		values []float64
	}
	buckets := map[string]*bucket{}
	var order []string
	for _, s := range inner {
		key, labels := groupKey(s.Labels, agg.By, agg.Without)
		b, ok := buckets[key]
		if !ok {
			b = &bucket{labels: labels}
			buckets[key] = b
			order = append(order, key)
		}
		b.values = append(b.values, s.Value)
	}
	sort.Strings(order)
	out := make(Vector, 0, len(order))
	for _, key := range order {
		b := buckets[key]
		var v float64
		switch agg.Op {
		case "sum":
			for _, x := range b.values {
				v += x
			}
		case "avg":
			for _, x := range b.values {
				v += x
			}
			v /= float64(len(b.values))
		case "min":
			v = b.values[0]
			for _, x := range b.values[1:] {
				v = math.Min(v, x)
			}
		case "max":
			v = b.values[0]
			for _, x := range b.values[1:] {
				v = math.Max(v, x)
			}
		case "count":
			v = float64(len(b.values))
		default:
			return nil, fmt.Errorf("promql: unknown aggregation %s", agg.Op)
		}
		out = append(out, Sample{Labels: b.labels, Value: v})
	}
	return out, nil
}

// groupKey derives the grouping key and surviving label set.
func groupKey(l telemetry.Labels, by []string, without bool) (string, telemetry.Labels) {
	keep := map[string]bool{}
	for _, name := range by {
		keep[name] = true
	}
	kv := l.Pairs()
	var pairs []string
	for i := 0; i < len(kv); i += 2 {
		selected := keep[kv[i]]
		if without {
			selected = !selected
		}
		if selected {
			pairs = append(pairs, kv[i], kv[i+1])
		}
	}
	labels, _ := telemetry.NewLabels(pairs...)
	return labels.String(), labels
}

func (e *Engine) evalBinary(bin *BinaryOp, at sim.Time) (Vector, error) {
	lhs, err := e.Eval(bin.LHS, at)
	if err != nil {
		return nil, err
	}
	rhs, err := e.Eval(bin.RHS, at)
	if err != nil {
		return nil, err
	}
	lScalar := isScalar(bin.LHS, lhs)
	rScalar := isScalar(bin.RHS, rhs)
	switch {
	case lScalar && rScalar:
		v, keep := apply(bin.Op, lhs[0].Value, rhs[0].Value, true)
		if !keep {
			return Vector{}, nil
		}
		return Vector{{Value: v}}, nil
	case rScalar:
		return combine(lhs, rhs[0].Value, bin.Op, false), nil
	case lScalar:
		return combine(rhs, lhs[0].Value, bin.Op, true), nil
	default:
		return nil, fmt.Errorf("promql: vector-to-vector binary operations are not supported")
	}
}

// isScalar reports whether the expression produced a scalar.
func isScalar(expr Expr, v Vector) bool {
	if _, ok := expr.(*NumberLit); ok {
		return true
	}
	if b, ok := expr.(*BinaryOp); ok {
		// A binary over scalars stays scalar.
		return isScalar(b.LHS, nil) && isScalar(b.RHS, nil)
	}
	return false
}

// combine applies op between each vector element and the scalar. flipped
// means the scalar was the left operand. Comparisons filter, Prometheus
// style.
func combine(vec Vector, scalar float64, op string, flipped bool) Vector {
	out := make(Vector, 0, len(vec))
	for _, s := range vec {
		a, b := s.Value, scalar
		if flipped {
			a, b = scalar, s.Value
		}
		v, keep := apply(op, a, b, false)
		if !keep {
			continue
		}
		if isComparison(op) {
			v = s.Value // comparison keeps the original sample value
		}
		out = append(out, Sample{Labels: s.Labels, Value: v})
	}
	return out
}

// apply computes a binary op. For comparisons between scalars the result
// is 1/0 (bool modifier semantics); for vector comparisons the caller
// filters using keep.
func apply(op string, a, b float64, scalarCmp bool) (float64, bool) {
	switch op {
	case "+":
		return a + b, true
	case "-":
		return a - b, true
	case "*":
		return a * b, true
	case "/":
		return a / b, true
	}
	var truth bool
	switch op {
	case ">":
		truth = a > b
	case "<":
		truth = a < b
	case ">=":
		truth = a >= b
	case "<=":
		truth = a <= b
	case "==":
		truth = a == b
	case "!=":
		truth = a != b
	}
	if scalarCmp {
		if truth {
			return 1, true
		}
		return 0, true
	}
	return a, truth
}

// Format renders a vector for display, one sample per line.
func Format(v Vector) string {
	var b strings.Builder
	for _, s := range v {
		if s.Labels.Len() > 0 {
			b.WriteString(s.Labels.String())
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g\n", s.Value)
	}
	return b.String()
}
