package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of GET /metrics: sample name (labels included,
// verbatim) to value. Histograms appear as their _sum and _count samples;
// bucket samples are dropped, the ledger works from sums and counts.
type scrape map[string]float64

// parseMetrics reads Prometheus text exposition 0.0.4 as sdpd writes it.
func parseMetrics(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		name := line[:sp]
		if strings.Contains(name, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrapeClient fetches /metrics without keep-alive, so an idle gateway
// holds no connection of ours between scrapes.
var scrapeClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func scrapeDaemon(d *daemon) (scrape, error) {
	resp, err := scrapeClient.Get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// scrapeAll sums the samples of every daemon of the cluster: the ledger
// charges a client op with the work all daemons did for it.
func (c *cluster) scrapeAll() (scrape, error) {
	total := make(scrape)
	for _, d := range c.daemons {
		s, err := scrapeDaemon(d)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			total[k] += v
		}
	}
	return total, nil
}

// sub returns s minus before, sample by sample: the work done between two
// scrapes.
func (s scrape) sub(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates other into s.
func (s scrape) add(other scrape) {
	for k, v := range other {
		s[k] += v
	}
}
