package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// harness's side of the call. IDs are 1-based indices into the tracer;
// parent 0 is a root. Spans of one request share an op ID.
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: client goroutines record into their own opRecords, and
// spans are made from those after the lap.
type tracer struct {
	spans []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.spans = append(t.spans, span{name, start, end, parent, op})
	return len(t.spans)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, start, time.Now(), parent, op)
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTimes returns, per span ID, the span's duration minus the summed
// durations of its direct children: the time the layer spent itself
// rather than in the layers it called.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans)+1)
	for i, s := range t.spans {
		self[i+1] += s.dur()
		if s.parent != 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// meanByName averages a per-span quantity over the spans called name.
func (t *tracer) meanByName(name string, per []time.Duration) time.Duration {
	var sum time.Duration
	n := 0
	for i, s := range t.spans {
		if s.name == name {
			sum += per[i+1]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// durations is the per-span-ID duration table, the companion of selfTimes.
func (t *tracer) durations() []time.Duration {
	d := make([]time.Duration, len(t.spans)+1)
	for i, s := range t.spans {
		d[i+1] = s.dur()
	}
	return d
}

// writeFile dumps the spans as a JSON array of {id, name, start_ns,
// end_ns, parent, op}; times are nanoseconds since the first span began.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var t0 time.Time
	if len(t.spans) > 0 {
		t0 = t.spans[0].start
		for _, s := range t.spans {
			if s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, `%s{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`,
			sep, i+1, s.name, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds(), s.parent, s.op)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
