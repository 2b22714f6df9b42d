package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"testing"
)

// brokenSink accepts n bytes, then fails every write: a client that went
// away mid-response.
type brokenSink struct{ n int }

func (b *brokenSink) Write(p []byte) (int, error) {
	if len(p) > b.n {
		w := b.n
		b.n = 0
		return w, errors.New("connection reset")
	}
	b.n -= len(p)
	return len(p), nil
}

// gzipChunks compresses doc through gz the way replayCached does: chunk
// by chunk with a flush between chunks, then Close.
func gzipChunks(t *testing.T, gz *gzip.Writer, doc []byte) {
	t.Helper()
	const chunk = 4 << 10
	for off := 0; off < len(doc); off += chunk {
		if _, err := gz.Write(doc[off:min(off+chunk, len(doc))]); err != nil {
			t.Fatal(err)
		}
		if err := gz.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGzipPoolReusesAbandonedWriter pins the pool's reset: a writer whose
// response was abandoned mid-stream (by a failed socket, or by a query
// failing after the first rows, the panic(http.ErrAbortHandler) paths)
// goes back to the pool unclosed, and the next response it serves is
// byte-identical to one from a fresh gzip.NewWriter.
func TestGzipPoolReusesAbandonedWriter(t *testing.T) {
	var doc []byte
	for i := 0; i < 2000; i++ {
		doc = fmt.Appendf(doc, "{\"s\":{\"type\":\"uri\",\"value\":\"http://example.org/%d\"}},\n", i*7919%1000)
	}
	var want bytes.Buffer
	gzipChunks(t, gzip.NewWriter(&want), doc)

	for _, abandon := range []struct {
		name string
		sink io.Writer
	}{
		{"write error", &brokenSink{n: 300}},
		{"unclosed", io.Discard},
	} {
		abandoned := takeGzip(abandon.sink)
		abandoned.Write(doc[:len(doc)/2])
		abandoned.Flush()

		// sync.Pool may drop a Put or hand out another writer; put the
		// abandoned one back until the pool returns it.
		var got bytes.Buffer
		var reused *gzip.Writer
		for i := 0; i < 100 && reused != abandoned; i++ {
			gzipPool.Put(abandoned)
			reused = takeGzip(&got)
		}
		if reused != abandoned {
			t.Fatalf("%s: the pool never returned the abandoned writer", abandon.name)
		}
		gzipChunks(t, reused, doc)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: reused writer's body (%d bytes) differs from a fresh writer's (%d bytes)",
				abandon.name, got.Len(), want.Len())
		}
	}
}

// TestGzipConcurrentHitsAndMisses runs gzip and identity requests for
// distinct query texts from several goroutines at once, so pooled
// writers pass between cache misses (streamed) and hits (replayed); every
// gzip body must decompress to the identity document of its format.
func TestGzipConcurrentHitsAndMisses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	accepts := []string{"application/sparql-results+json", "text/tab-separated-values"}
	want := map[string][]byte{}
	for _, accept := range accepts {
		_, want[accept] = rawGet(t, ts, optionalQ, map[string]string{"Accept": accept})
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				// A trailing comment keys a new cache entry: the first
				// request of each text misses, the later ones hit.
				q := fmt.Sprintf("%s\n# %d", optionalQ, (g+i)%6)
				accept := accepts[i%len(accepts)]
				useGzip := (g+i)%2 == 0
				if err := checkGzipGet(client, ts.URL, q, accept, useGzip, want[accept]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func checkGzipGet(client *http.Client, base, query, accept string, useGzip bool, want []byte) error {
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", accept)
	if useGzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	wantEnc := ""
	if useGzip {
		wantEnc = "gzip"
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != wantEnc {
		return fmt.Errorf("Content-Encoding %q, want %q", enc, wantEnc)
	}
	body := io.Reader(resp.Body)
	if useGzip {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return err
		}
		body = zr
	}
	got, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s gzip=%v X-Cache=%q: body differs\n got: %s\nwant: %s",
			accept, useGzip, resp.Header.Get("X-Cache"), got, want)
	}
	return nil
}

// TestAcceptsGzipAllocs pins that Accept-Encoding negotiation, which runs
// on every request, allocates nothing.
func TestAcceptsGzipAllocs(t *testing.T) {
	for _, ae := range []string{"", "gzip", "gzip, deflate, br", "br;q=1.0, gzip;q=0.8, *;q=0.1", "gzip;q=0, *"} {
		r, err := http.NewRequest(http.MethodGet, "/sparql", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("Accept-Encoding", ae)
		if allocs := testing.AllocsPerRun(100, func() { acceptsGzip(r) }); allocs != 0 {
			t.Errorf("acceptsGzip(%q): %.1f allocations, want 0", ae, allocs)
		}
	}
}
