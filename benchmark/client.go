package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is one closed-loop caller holding a single keep-alive
// connection to the server: it sends its next request only after the
// previous answer has been read.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and decodes a 2xx answer into out. The
// returned duration runs from sending the request to having read the
// whole answer; decoding is not part of it.
func (c *client) post(path string, body []byte, out any) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return d, fmt.Errorf("POST %s: decoding answer: %w", path, err)
	}
	return d, nil
}

func (c *client) getJSON(path string, out any) error {
	data, err := c.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// scrape reads the Prometheus text exposition at /metrics into a map of
// sample name (labels included) to value.
func (c *client) scrape() (map[string]float64, error) {
	data, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds up every sample whose name (before any labels) is name.
func sumPrefix(samples map[string]float64, name string) float64 {
	var s float64
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
