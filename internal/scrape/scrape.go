// Package scrape implements the Prometheus pull path: parsing the text
// exposition format and appending scraped samples into the telemetry store.
// Together with internal/exporter it closes the measurement loop of Sec. 4
// (exporter → scrape → TSDB → analysis).
package scrape

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// ParsedSample is one exposition line: metric name, labels, value.
type ParsedSample struct {
	Name   string
	Labels telemetry.Labels
	Value  float64
}

// Parse reads the Prometheus text format, ignoring comments and blank
// lines. It supports the gauge subset the exporter emits.
func Parse(r io.Reader) ([]ParsedSample, error) {
	var out []ParsedSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (ParsedSample, error) {
	var s ParsedSample
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, fmt.Errorf("malformed line %q", line)
	}
	if nameEnd == 0 {
		return s, fmt.Errorf("missing metric name in %q", line)
	}
	s.Name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		labels, after, err := parseLabels(rest[1:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = after
	}
	valueStr := strings.TrimSpace(rest)
	// A trailing timestamp (milliseconds) may follow the value.
	if i := strings.IndexByte(valueStr, ' '); i >= 0 {
		valueStr = valueStr[:i]
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a label set whose opening brace precedes body and
// returns it with the rest of the line after the closing brace. The scan
// is quote-aware, so a '}' inside a quoted value does not end the set.
func parseLabels(body string) (telemetry.Labels, string, error) {
	var pairs []string
	for {
		body = strings.TrimSpace(body)
		if body == "" {
			return telemetry.Labels{}, "", errors.New("unterminated label set")
		}
		if body[0] == '}' {
			labels, err := telemetry.NewLabels(pairs...)
			return labels, body[1:], err
		}
		eq := strings.IndexAny(body, "=}")
		if eq < 0 || body[eq] != '=' {
			return telemetry.Labels{}, "", fmt.Errorf("malformed labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return telemetry.Labels{}, "", fmt.Errorf("unquoted label value after %q", key)
		}
		// Find the closing quote, honoring escapes.
		end := -1
		for i := 1; i < len(body); i++ {
			if body[i] == '\\' {
				i++
				continue
			}
			if body[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return telemetry.Labels{}, "", fmt.Errorf("unterminated label value after %q", key)
		}
		val, err := strconv.Unquote(body[:end+1])
		if err != nil {
			return telemetry.Labels{}, "", fmt.Errorf("bad label value after %q: %w", key, err)
		}
		pairs = append(pairs, key, val)
		body = strings.TrimPrefix(strings.TrimSpace(body[end+1:]), ",")
	}
}

// Scraper pulls one or more HTTP targets into a telemetry store.
type Scraper struct {
	Store *telemetry.Store
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
}

// ScrapeTarget GETs the target's /metrics endpoint and appends every sample
// at simulation time now. Returns the number of samples ingested.
func (s *Scraper) ScrapeTarget(url string, now sim.Time) (int, error) {
	client := s.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return 0, fmt.Errorf("scrape: %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape: %s: status %d", url, resp.StatusCode)
	}
	return s.Ingest(resp.Body, now)
}

// Ingest parses exposition text and appends the samples at time now. The
// whole scrape is batched through one Appender commit, taking the store
// lock once instead of once per sample. It is safe for concurrent use, but
// no caller needs that: analyze -scrape and the flight recorder visit
// their targets one after another. Samples that fail the
// out-of-order check are dropped and excluded from the returned count;
// the rest of the scrape still lands.
func (s *Scraper) Ingest(r io.Reader, now sim.Time) (int, error) {
	samples, err := Parse(r)
	if err != nil {
		return 0, err
	}
	app := s.Store.Appender()
	for _, smp := range samples {
		app.Append(smp.Name, smp.Labels, now, smp.Value)
	}
	return app.Commit()
}
