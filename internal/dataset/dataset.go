// Package dataset reads and writes the released telemetry artifact: CSV
// files with one row per sample, anonymized the way the paper describes
// (Appendix A: "metadata, such as hostnames, project IDs, and IP addresses
// were consistently hashed or removed").
//
// Schema (header included):
//
//	metric,ts_seconds,value,labels
//
// where ts_seconds is exact decimal seconds (up to nine fractional digits,
// one per nanosecond), and labels is a semicolon-separated k=v list with
// values consistently hashed for the configured label keys. A backslash
// escapes a backslash or ';' in values, and '=' too in names.
package dataset

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// Anonymizer consistently hashes entity identifiers: equal inputs map to
// equal outputs within one dataset, but the mapping is not reversible.
type Anonymizer struct {
	salt string
	memo map[string]string
}

// NewAnonymizer creates an anonymizer with a dataset-specific salt.
func NewAnonymizer(salt string) *Anonymizer {
	return &Anonymizer{salt: salt, memo: make(map[string]string)}
}

// Hash returns the stable pseudonym of an identifier.
func (a *Anonymizer) Hash(id string) string {
	if h, ok := a.memo[id]; ok {
		return h
	}
	sum := sha256.Sum256([]byte(a.salt + "\x00" + id))
	h := hex.EncodeToString(sum[:6]) // 12 hex chars, like the released data
	a.memo[id] = h
	return h
}

// DefaultAnonymizedLabels lists the label keys whose values carry entity
// identity and must be hashed before release.
func DefaultAnonymizedLabels() map[string]bool {
	return map[string]bool{
		"hostsystem":     true,
		"virtualmachine": true,
		"project":        true,
	}
}

// WriteOptions configures export.
type WriteOptions struct {
	// Anonymizer hashes the values of AnonymizeLabels; nil disables
	// anonymization (for internal round-trips).
	Anonymizer      *Anonymizer
	AnonymizeLabels map[string]bool
}

// Write exports every series of the store. Rows are ordered by metric name,
// then label fingerprint, then time, so output is deterministic.
func Write(w io.Writer, store *telemetry.Store, opts WriteOptions) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "ts_seconds", "value", "labels"}); err != nil {
		return err
	}
	for _, metric := range store.Metrics() {
		series := store.Select(metric)
		sort.Slice(series, func(i, j int) bool {
			return series[i].Labels.String() < series[j].Labels.String()
		})
		for _, s := range series {
			labelStr := encodeLabels(s.Labels, opts)
			for _, smp := range s.Samples {
				rec := []string{
					metric,
					FormatTime(smp.T),
					strconv.FormatFloat(smp.V, 'g', -1, 64),
					labelStr,
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// EncodeLabels renders a label set as the labels column: name=value pairs
// in name order, joined by ';', escaped as the schema describes.
func EncodeLabels(l telemetry.Labels) string {
	return encodeLabels(l, WriteOptions{})
}

func encodeLabels(l telemetry.Labels, opts WriteOptions) string {
	pairs := l.Pairs()
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		key, val := pairs[i], pairs[i+1]
		if opts.Anonymizer != nil && opts.AnonymizeLabels[key] {
			val = opts.Anonymizer.Hash(val)
		}
		if i > 0 {
			b.WriteByte(';')
		}
		writeEscaped(&b, key, `\;=`)
		b.WriteByte('=')
		writeEscaped(&b, val, `\;`)
	}
	return b.String()
}

// writeEscaped writes s with a backslash before every byte in special.
func writeEscaped(b *strings.Builder, s, special string) {
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(special, s[i]) >= 0 {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
}

// Read imports a dataset CSV into a fresh telemetry store.
func Read(r io.Reader) (*telemetry.Store, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if header[0] != "metric" || header[1] != "ts_seconds" || header[2] != "value" || header[3] != "labels" {
		return nil, fmt.Errorf("dataset: unexpected header %v", header)
	}
	store := telemetry.NewStore()
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		line++
		t, err := ParseTime(rec[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		val, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad value %q", line, rec[2])
		}
		labels, err := decodeLabels(rec[3])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if err := store.Append(rec[0], labels, t, val); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	return store, nil
}

// decodeLabels parses the labels column written by EncodeLabels.
func decodeLabels(s string) (telemetry.Labels, error) {
	if s == "" {
		return telemetry.Labels{}, nil
	}
	var pairs []string
	start, eq := 0, -1
	for i := 0; i <= len(s); i++ {
		switch {
		case i == len(s) || s[i] == ';':
			if eq < 0 {
				return telemetry.Labels{}, fmt.Errorf("malformed label %q", s[start:i])
			}
			key, err := unescape(s[start:eq])
			if err != nil {
				return telemetry.Labels{}, err
			}
			val, err := unescape(s[eq+1 : i])
			if err != nil {
				return telemetry.Labels{}, err
			}
			pairs = append(pairs, key, val)
			start, eq = i+1, -1
		case s[i] == '\\':
			if i+1 < len(s) {
				i++ // unescape validates the escaped byte
			}
		case s[i] == '=' && eq < 0:
			eq = i
		}
	}
	return telemetry.NewLabels(pairs...)
}

// unescape drops the backslash before each escaped byte.
func unescape(s string) (string, error) {
	if strings.IndexByte(s, '\\') < 0 {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			if i == len(s) || strings.IndexByte(`\;=`, s[i]) < 0 {
				return "", fmt.Errorf("bad escape in label %q", s)
			}
		}
		b.WriteByte(s[i])
	}
	return b.String(), nil
}

// FormatTime renders t as the ts_seconds column: exact decimal seconds,
// with trailing fractional zeros (and a bare point) dropped.
func FormatTime(t sim.Time) string {
	ns := uint64(t)
	sign := ""
	if t < 0 {
		sign, ns = "-", -ns
	}
	out := sign + strconv.FormatUint(ns/uint64(sim.Second), 10)
	if frac := ns % uint64(sim.Second); frac != 0 {
		out += strings.TrimRight(fmt.Sprintf(".%09d", frac), "0")
	}
	return out
}

// maxSeconds keeps a parsed timestamp, fraction included, inside sim.Time.
const maxSeconds = math.MaxInt64/int64(sim.Second) - 1

// ParseTime parses a ts_seconds value: optionally signed decimal seconds.
// Digits past the ninth fractional one round to the nearest nanosecond.
func ParseTime(s string) (sim.Time, error) {
	whole, frac, _ := strings.Cut(s, ".")
	sec, err := strconv.ParseInt(whole, 10, 64)
	if err != nil || sec > maxSeconds || sec < -maxSeconds || !allDigits(frac) {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	var ns int64
	for i := 0; i < 9; i++ {
		ns *= 10
		if i < len(frac) {
			ns += int64(frac[i] - '0')
		}
	}
	if len(frac) > 9 && frac[9] >= '5' {
		ns++
	}
	t := sim.Time(sec) * sim.Second
	if strings.HasPrefix(whole, "-") {
		return t - sim.Time(ns), nil
	}
	return t + sim.Time(ns), nil
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
