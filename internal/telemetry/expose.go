package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in Prometheus text exposition
// format 0.0.4: HELP/TYPE comments followed by samples, histograms as
// cumulative le-labelled buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Children of a labeled family share one name; HELP/TYPE print once
	// per name, not once per sample.
	lastHeader := ""
	for _, s := range r.Snapshot() {
		if s.Name != lastHeader {
			lastHeader = s.Name
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		if s.Label != "" {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", s.Name, s.Label, s.LabelValue, formatFloat(s.Value)); err != nil {
				return err
			}
			continue
		}
		switch s.Kind {
		case KindHistogram:
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, formatFloat(b.UpperBound), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, s.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", s.Name, formatFloat(s.Sum), s.Name, s.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// representation that round-trips, no exponent for integral values.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonHistogram is the /debug/vars shape for histograms.
type jsonHistogram struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// WriteJSON writes the registry as a single expvar-style JSON object
// mapping metric name to value (histograms become {count, sum, buckets}).
func (r *Registry) WriteJSON(w io.Writer) error {
	obj := make(map[string]any)
	for _, s := range r.Snapshot() {
		if s.Label != "" {
			obj[fmt.Sprintf("%s{%s=%q}", s.Name, s.Label, s.LabelValue)] = s.Value
			continue
		}
		switch s.Kind {
		case KindHistogram:
			h := jsonHistogram{Count: s.Count, Sum: s.Sum}
			if len(s.Buckets) > 0 {
				h.Buckets = make(map[string]uint64, len(s.Buckets))
				for _, b := range s.Buckets {
					h.Buckets[formatFloat(b.UpperBound)] = b.Count
				}
			}
			obj[s.Name] = h
		default:
			obj[s.Name] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// ReadJSON is WriteJSON's inverse: it reads the object back into
// snapshots by name. A histogram comes back with its buckets sorted by
// bound, ready for Quantile and DeltaSnapshot; any other entry is a
// number and lands in Value, its Kind unset (the JSON does not say
// whether it counted or gauged). A labeled child keeps its rendered
// name{label="value"} key.
func ReadJSON(r io.Reader) (map[string]MetricSnapshot, error) {
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(r).Decode(&obj); err != nil {
		return nil, fmt.Errorf("telemetry: reading JSON snapshot: %w", err)
	}
	out := make(map[string]MetricSnapshot, len(obj))
	for name, raw := range obj {
		s := MetricSnapshot{Name: name}
		if json.Unmarshal(raw, &s.Value) == nil {
			out[name] = s
			continue
		}
		var h jsonHistogram
		if err := json.Unmarshal(raw, &h); err != nil {
			return nil, fmt.Errorf("telemetry: reading JSON snapshot of %s: %w", name, err)
		}
		s.Kind, s.Count, s.Sum = KindHistogram, h.Count, h.Sum
		for le, n := range h.Buckets {
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: reading JSON snapshot of %s: bucket %q: %w", name, le, err)
			}
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: bound, Count: n})
		}
		sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].UpperBound < s.Buckets[j].UpperBound })
		out[name] = s
	}
	return out, nil
}

// WriteSummary writes a compact human-readable snapshot — the end-of-run
// report sdpsim and benchfig print. Metrics that never moved are elided
// so short runs stay readable.
func (r *Registry) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "-- telemetry --"); err != nil {
		return err
	}
	for _, s := range r.Snapshot() {
		if s.Label != "" {
			if s.Value == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s{%s=%q}: %s\n", s.Name, s.Label, s.LabelValue, formatFloat(s.Value)); err != nil {
				return err
			}
			continue
		}
		switch s.Kind {
		case KindHistogram:
			if s.Count == 0 {
				continue
			}
			mean := s.Sum / float64(s.Count)
			_, err := fmt.Fprintf(w, "%s: count=%d sum=%s mean=%s p50<=%s p99<=%s\n",
				s.Name, s.Count, formatFloat(s.Sum), formatFloat(mean),
				formatFloat(s.Quantile(0.50)), formatFloat(s.Quantile(0.99)))
			if err != nil {
				return err
			}
		default:
			if s.Value == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s: %s\n", s.Name, formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary returns WriteSummary's output as a string.
func (r *Registry) Summary() string {
	var b strings.Builder
	_ = r.WriteSummary(&b)
	return b.String()
}
