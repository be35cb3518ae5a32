package proxy

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// configMapBody is an allowed ConfigMap whose data value carries seq,
// padded to at least pad bytes, so every request's body is its own.
func configMapBody(seq, pad int) string {
	v := strconv.Itoa(seq)
	if n := pad - len(v); n > 0 {
		v += strings.Repeat("x", n)
	}
	return `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm","namespace":"default"},"data":{"key":"` + v + `"}}`
}

// configMapRequest builds request seq: its body, its query and its
// X-Seq header each name seq, so a recycled URL, header or body shows.
func configMapRequest(seq, pad int) *http.Request {
	r := httptest.NewRequest(http.MethodPost,
		"/api/v1/namespaces/default/configmaps?seq="+strconv.Itoa(seq), strings.NewReader(configMapBody(seq, pad)))
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set("X-Remote-User", "operator")
	r.Header.Set("X-Seq", strconv.Itoa(seq))
	return r
}

// checkUpstream reports how an upstream request differs from request
// seq as configMapRequest built it: its query, its X-Seq header and,
// when body is non-nil, the bytes read from its body.
func checkUpstream(seq int, req *http.Request, body []byte, pad int) error {
	want := strconv.Itoa(seq)
	if got := req.URL.Query().Get("seq"); got != want {
		return fmt.Errorf("request %d: upstream URL names request %s", seq, got)
	}
	if got := req.Header.Get("X-Seq"); got != want {
		return fmt.Errorf("request %d: upstream header names request %s", seq, got)
	}
	if body != nil {
		return checkBody(seq, body, pad)
	}
	return nil
}

// checkBody reports a body that is not request seq's, quoting the data
// value that names the request it is.
func checkBody(seq int, body []byte, pad int) error {
	if string(body) == configMapBody(seq, pad) {
		return nil
	}
	_, v, _ := strings.Cut(string(body), `"key":"`)
	return fmt.Errorf("request %d: upstream body is not its own (%d bytes, data %.24q…)", seq, len(body), v)
}

// errorList collects failures from any goroutine.
type errorList struct {
	mu   sync.Mutex
	errs []error
}

func (l *errorList) add(err error) {
	if err != nil {
		l.mu.Lock()
		l.errs = append(l.errs, err)
		l.mu.Unlock()
	}
}

func (l *errorList) report(t *testing.T) {
	t.Helper()
	for i, err := range l.errs {
		if i == 5 {
			t.Errorf("… and %d more", len(l.errs)-i)
			break
		}
		t.Error(err)
	}
}

// lateTransport is a hostile but contract-conformant RoundTripper: it
// captures the body at entry and reads it on another goroutine, before
// the response is closed for even requests and only after it for odd
// ones. At response Close it checks that the request's URL and header
// are still this request's (a transport may read them until then); the
// reading goroutine checks the body's bytes, closes the body, and then
// closes it a second time, late.
type lateTransport struct {
	pad   int
	errs  *errorList
	late  sync.WaitGroup
	calls atomic.Int64
}

func (h *lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h.calls.Add(1)
	body := req.Body
	seq, err := strconv.Atoi(req.Header.Get("X-Seq"))
	if err != nil {
		return nil, err
	}
	readNow := seq%2 == 0
	start, read := make(chan struct{}), make(chan struct{})
	if readNow {
		close(start)
	}
	h.late.Add(1)
	go func() {
		defer h.late.Done()
		<-start
		b, err := io.ReadAll(body)
		h.errs.add(err)
		h.errs.add(checkBody(seq, b, h.pad))
		body.Close()
		close(read)
		// The late, second Close.
		runtime.Gosched()
		body.Close()
	}()
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: &checkedBody{
		close: func() {
			h.errs.add(checkUpstream(seq, req, nil, h.pad))
			if readNow {
				<-read
			} else {
				// The body is read after the response is closed: the
				// frame must outlive the response until then.
				close(start)
			}
		},
	}}, nil
}

// checkedBody is an empty response body that runs close at its first
// Close.
type checkedBody struct {
	close func()
	once  sync.Once
}

func (*checkedBody) Read([]byte) (int, error) { return 0, io.EOF }
func (b *checkedBody) Close() error {
	b.once.Do(b.close)
	return nil
}

// TestForwardFrameOutlivesTransportUse drives a recycled upstream frame
// through a transport that uses every freedom the RoundTripper contract
// gives it; run under -race (make forward-race) a frame recycled early
// is a reported race as well as a wrong URL, header or body.
func TestForwardFrameOutlivesTransportUse(t *testing.T) {
	const goroutines, perG, pad = 8, 300, 64
	errs := &errorList{}
	tr := &lateTransport{pad: pad, errs: errs}
	p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: tr}, testPolicy(t), 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w := httptest.NewRecorder()
				p.ServeHTTP(w, configMapRequest(g*perG+i, pad))
				if w.Code != http.StatusOK {
					errs.add(fmt.Errorf("request %d: status %d: %s", g*perG+i, w.Code, w.Body))
				}
			}
		}(g)
	}
	wg.Wait()
	tr.late.Wait()
	errs.report(t)
	if n := tr.calls.Load(); n != goroutines*perG {
		t.Errorf("%d round trips, want %d", n, goroutines*perG)
	}
}

// TestForwardBodyOutlivesEarlyAnswer forwards through a real
// http.Transport to an upstream that answers each request in full
// before it reads the body, so the proxy may close the response while
// the transport is still writing the request: every body the upstream
// reads must be its own request's.
func TestForwardBodyOutlivesEarlyAnswer(t *testing.T) {
	const goroutines, perG, pad = 4, 40, 128 << 10
	errs := &errorList{}
	var complete atomic.Int64
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			errs.add(err)
			return
		}
		w.Header().Set("Content-Length", "2")
		_, _ = io.WriteString(w, "ok")
		_ = rc.Flush()
		seq, err := strconv.Atoi(r.Header.Get("X-Seq"))
		errs.add(err)
		b, err := io.ReadAll(r.Body)
		if err != nil {
			// The transport gave up on a write the answer overtook and
			// closed the connection; a truncated body proves nothing.
			return
		}
		complete.Add(1)
		errs.add(checkUpstream(seq, r, b, pad))
	}))
	t.Cleanup(upstream.Close)
	tr := &http.Transport{MaxIdleConnsPerHost: goroutines}
	t.Cleanup(tr.CloseIdleConnections)
	p := newProxy(t, Config{Upstream: upstream.URL, Transport: tr}, testPolicy(t), 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w := httptest.NewRecorder()
				p.ServeHTTP(w, configMapRequest(g*perG+i, pad))
				if w.Code != http.StatusOK {
					errs.add(fmt.Errorf("request %d: status %d: %s", g*perG+i, w.Code, w.Body))
				}
			}
		}(g)
	}
	wg.Wait()
	upstream.Close()
	errs.report(t)
	if complete.Load() == 0 {
		t.Error("the upstream read no body in full")
	}
}

// failingTransport closes the body and fails every even request,
// keeping the request it was handed; odd requests succeed.
type failingTransport struct {
	kept []*http.Request
}

func (f *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Body.Close()
	if seq, _ := strconv.Atoi(req.Header.Get("X-Seq")); seq%2 == 0 {
		f.kept = append(f.kept, req)
		return nil, errors.New("upstream refused")
	}
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
}

// TestForwardFailedCallIsNotRecycled: a frame whose round trip failed
// stays with the transport that holds it — its fields are intact after
// the requests that follow.
func TestForwardFailedCallIsNotRecycled(t *testing.T) {
	const requests, pad = 200, 16
	tr := &failingTransport{}
	p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: tr}, testPolicy(t), 0)
	for seq := 0; seq < requests; seq++ {
		w := httptest.NewRecorder()
		p.ServeHTTP(w, configMapRequest(seq, pad))
		if want := []int{http.StatusBadGateway, http.StatusOK}[seq%2]; w.Code != want {
			t.Fatalf("request %d: status %d, want %d", seq, w.Code, want)
		}
	}
	if len(tr.kept) != requests/2 {
		t.Fatalf("kept %d failed requests, want %d", len(tr.kept), requests/2)
	}
	for i, req := range tr.kept {
		if err := checkUpstream(2*i, req, nil, pad); err != nil {
			t.Fatal(err)
		}
		if req.Method != http.MethodPost || req.ContentLength != int64(len(configMapBody(2*i, pad))) {
			t.Fatalf("request %d: kept as %s with %d bytes", 2*i, req.Method, req.ContentLength)
		}
	}
}

// captureTransport records the header of each request it is handed and
// answers with a fixed header.
type captureTransport struct {
	got    []http.Header
	answer http.Header
}

func (c *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	c.got = append(c.got, req.Header.Clone())
	return &http.Response{StatusCode: http.StatusOK, Header: c.answer, Body: http.NoBody}, nil
}

// An in-process caller's header map need not be canonical; a smuggled
// identity header must be stripped under any spelling.
func TestForwardStripsNonCanonicalIdentityHeaders(t *testing.T) {
	tr := &captureTransport{}
	p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: tr, ProxyUser: "kubefence-proxy"},
		testPolicy(t), 0)
	r := httptest.NewRequest(http.MethodGet, "/api/v1/namespaces/default/configmaps", nil)
	r.Header.Set("X-Remote-User", "operator")
	r.Header["x-forwarded-group"] = []string{"system:masters"}
	r.Header["x-forwarded-user"] = []string{"cluster-admin"}
	r.Header["x-remote-user"] = []string{"cluster-admin"}
	r.Header["x-remote-group"] = []string{"system:masters"}
	p.ServeHTTP(httptest.NewRecorder(), r)
	if len(tr.got) != 1 {
		t.Fatalf("%d upstream requests, want 1", len(tr.got))
	}
	h := tr.got[0]
	for k, want := range map[string][]string{
		"X-Forwarded-User":  {"operator"},
		"X-Forwarded-Group": nil,
		"X-Remote-User":     {"kubefence-proxy"},
		"X-Remote-Group":    nil,
	} {
		if got := h.Values(k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("upstream %s: %q, want %q", k, got, want)
		}
	}
	for k := range h {
		if k != http.CanonicalHeaderKey(k) {
			t.Errorf("upstream header key %q is not canonical", k)
		}
	}
}

// Hop-by-hop headers stay on their hop, both ways: a client's
// "Connection: close" must not cost the proxy its upstream keep-alive,
// and neither side's connection options reach the other.
func TestForwardStripsHopByHopHeaders(t *testing.T) {
	var conns atomic.Int64
	upstream := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := r.Header.Get("Connection"); c != "" {
			t.Errorf("upstream saw Connection: %s", c)
		}
	}))
	upstream.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	upstream.Start()
	t.Cleanup(upstream.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	ts := httptest.NewServer(newProxy(t, Config{Upstream: upstream.URL, Transport: tr}, testPolicy(t), 0))
	t.Cleanup(ts.Close)
	for i := 0; i < 5; i++ {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/namespaces/default/configmaps", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Close = true // Connection: close
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("5 requests opened %d upstream connections, want 1", n)
	}

	capture := &captureTransport{answer: http.Header{
		"Connection":        {"X-Upstream-Option"},
		"Keep-Alive":        {"timeout=5"},
		"X-Upstream-Option": {"1"},
		"Content-Type":      {"application/json"},
	}}
	p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: capture}, testPolicy(t), 0)
	r := httptest.NewRequest(http.MethodGet, "/api/v1/namespaces/default/configmaps", nil)
	for k, v := range map[string]string{
		"Connection": "keep-alive, X-Client-Option", "X-Client-Option": "1", "Keep-Alive": "timeout=5",
		"Proxy-Connection": "keep-alive", "Proxy-Authorization": "Basic Zm9vOmJhcg==", "Te": "trailers",
		"Trailer": "X-T", "Upgrade": "websocket", "Accept": "application/json",
	} {
		r.Header.Set(k, v)
	}
	r.Header["proxy-authenticate"] = []string{"Basic"}
	w := httptest.NewRecorder()
	p.ServeHTTP(w, r)
	up := capture.got[0]
	for _, k := range []string{"Connection", "X-Client-Option", "Keep-Alive", "Proxy-Connection",
		"Proxy-Authorization", "Proxy-Authenticate", "Te", "Trailer", "Upgrade"} {
		if v, ok := up[k]; ok {
			t.Errorf("upstream saw %s: %q", k, v)
		}
	}
	if up.Get("Accept") != "application/json" {
		t.Errorf("upstream lost Accept: %v", up)
	}
	for _, k := range []string{"Connection", "Keep-Alive", "X-Upstream-Option"} {
		if v, ok := w.Header()[k]; ok {
			t.Errorf("client saw %s: %q", k, v)
		}
	}
	if w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("client lost Content-Type: %v", w.Header())
	}
}

// relayBody is the 64 KiB response body TestForwardRelaysResponseBodies
// has upstream return: no two of its 256-byte blocks are alike, so a
// block dropped, repeated or moved on the way shows.
var relayBody = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}()

// A response body crosses the proxy through a pooled buffer: a 64 KiB
// body over real loopback connections, client -> proxy -> upstream,
// arrives byte for byte while the whole process allocates less per
// request than the 32 KiB copy buffer the server's ReadFrom path would
// make for it; and a chunked response reaches the client chunk by chunk,
// not held back to its end.
func TestForwardRelaysResponseBodies(t *testing.T) {
	release := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("chunked") == "" {
			w.Header().Set("Content-Length", strconv.Itoa(len(relayBody)))
			_, _ = w.Write(relayBody)
			return
		}
		_, _ = w.Write(relayBody[:16<<10])
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		_, _ = w.Write(relayBody[16<<10:])
	}))
	t.Cleanup(upstream.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	ts := httptest.NewServer(newProxy(t, Config{Upstream: upstream.URL, Transport: tr}, testPolicy(t), 0))
	t.Cleanup(ts.Close)
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	get := func(query string) *http.Response {
		t.Helper()
		resp, err := client.Get(ts.URL + "/api/v1/namespaces/default/configmaps" + query)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	buf := make([]byte, len(relayBody))
	fetch := func() {
		resp := get("")
		defer resp.Body.Close()
		if n, err := io.ReadFull(resp.Body, buf); err != nil || n != len(relayBody) || string(buf) != string(relayBody) {
			t.Fatalf("response: %d bytes, %v; the body differs from upstream's", n, err)
		}
	}
	for i := 0; i < 20; i++ {
		fetch()
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 16<<10+raceCopySlack {
		t.Errorf("a 64 KiB response allocates %d B per request, want at most %d", per, 16<<10+raceCopySlack)
	}

	resp := get("?chunked=1")
	defer resp.Body.Close()
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("transfer encoding %v, want chunked", resp.TransferEncoding)
	}
	first := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(resp.Body, buf[:16<<10])
		first <- err
	}()
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first chunk did not reach the client before upstream sent the rest")
	}
	close(release)
	if _, err := io.ReadFull(resp.Body, buf[16<<10:]); err != nil || string(buf) != string(relayBody) {
		t.Fatalf("chunked response: %v; the body differs from upstream's", err)
	}
}
