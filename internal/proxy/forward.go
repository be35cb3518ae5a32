package proxy

import (
	"bytes"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
)

// upstreamCall is the frame one upstream round trip is built in: the
// request itself, its URL, its header map and the values of the
// proxy's own single-value headers, in one pooled object, so an allowed
// request reaches upstream without allocating anything but its body
// wrapper. Inbound header values are shared, not copied: each value
// slice goes upstream capped at its length, so nothing appended
// upstream can write into the inbound request.
//
// A frame is recycled under the http.RoundTripper contract. The
// transport may read the request's fields until the response body is
// closed, and it may close the request body after RoundTrip returns,
// from another goroutine, more than once. So a frame holds one
// reference for forward, dropped once it has closed the response body,
// and one for a request body, dropped by the body's first Close; the
// last reference returns the frame to callPool. A round trip that fails
// keeps forward's reference forever: what a failed transport still
// holds is left to the garbage collector, never recycled under it.
type upstreamCall struct {
	req    http.Request
	url    url.URL
	header http.Header
	// buf is the pooled body buffer the request body reads from; the
	// body's first Close returns it to bodyPool.
	buf  *bytes.Buffer
	refs atomic.Int32
	// user and proxyUser back the X-Forwarded-User and X-Remote-User
	// values.
	user, proxyUser [1]string
}

// callPool recycles upstream frames.
var callPool = sync.Pool{New: func() any { return &upstreamCall{header: make(http.Header)} }}

// maxPooledHeaders caps the header map a pooled frame keeps: a map
// does not shrink when it is cleared, so a frame that carried an
// unusually large header set is dropped, not pooled, the way
// maxPooledBody bounds body buffers.
const maxPooledHeaders = 32

// release drops one reference; the last one recycles the frame.
func (c *upstreamCall) release() {
	if c.refs.Add(-1) != 0 || len(c.header) > maxPooledHeaders {
		return
	}
	header := c.header
	clear(header)
	*c = upstreamCall{header: header}
	callPool.Put(c)
}

// finish closes the response body and drops forward's reference.
func (c *upstreamCall) finish(body io.Closer) {
	body.Close()
	c.release()
}

// pooledBody carries a frame's pooled body into the upstream round
// trip. It is a separate allocation per request, never part of the
// frame: its first Close returns the buffer and drops the frame's body
// reference, and a stale second Close — the transport may close a body
// again, late, from another goroutine — finds its frame already gone
// and touches nothing, whatever request the recycled frame now carries.
// The body is not replayable (no GetBody): its buffer is recycled at
// the first Close, which a retrying transport may issue before it
// re-reads the body.
type pooledBody struct {
	bytes.Reader
	call atomic.Pointer[upstreamCall]
}

func (b *pooledBody) Close() error {
	if c := b.call.Swap(nil); c != nil {
		putBody(c.buf)
		c.buf = nil
		c.release()
	}
	return nil
}

// forward relays the request upstream, asserting the original caller via
// front-proxy headers. The upstream URL is the configured base with the
// inbound path and query copied onto it field by field — escaped form
// included, so upstream is asked for exactly the resource the client
// named ("n%3Fwatch=1" stays a name, not a query). Ownership of the
// pooled body buffer transfers to the upstream frame: the transport's
// first Body.Close returns it to the pool.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, user string,
	groups []string, q *Request) {
	c := callPool.Get().(*upstreamCall)
	c.url = *p.upstream
	c.url.Path = p.upstream.Path + r.URL.Path
	if r.URL.RawPath != "" || p.upstream.RawPath != "" {
		c.url.RawPath = p.upstream.EscapedPath() + r.URL.EscapedPath()
	}
	c.url.RawQuery = r.URL.RawQuery
	// WithContext is inlined, so its copy stays on the stack.
	c.req = *(&http.Request{
		Method:     r.Method,
		URL:        &c.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     c.header,
		Host:       c.url.Host,
	}).WithContext(r.Context())
	if len(q.body) > 0 {
		c.refs.Store(2)
		body := &pooledBody{}
		body.Reset(q.body)
		c.buf, q.buf = q.buf, nil
		body.call.Store(c)
		c.req.Body, c.req.ContentLength = body, int64(len(q.body))
	} else {
		c.refs.Store(1)
		// Nothing upstream will read; recycle the buffer immediately.
		q.Release()
	}
	copyEndToEnd(c.header, r.Header, true)
	// The proxy's own headers go last: a client cannot name them in
	// Connection to have them dropped.
	c.user[0] = user
	c.header["X-Forwarded-User"] = c.user[:]
	if len(groups) > 0 {
		c.header["X-Forwarded-Group"] = groups[:len(groups):len(groups)]
	}
	if p.proxyUser != "" {
		c.proxyUser[0] = p.proxyUser
		c.header["X-Remote-User"] = c.proxyUser[:]
	}

	resp, err := p.transport.RoundTrip(&c.req)
	if err != nil {
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer c.finish(resp.Body)
	copyEndToEnd(w.Header(), resp.Header, false)
	w.WriteHeader(resp.StatusCode)
	relay(w, resp.Body)
}

// responseCopy is a pooled buffer a response body is relayed through,
// and the Writer it is relayed into. It has no ReadFrom: handed the
// ResponseWriter itself, io.Copy would call the server's ReadFrom, which
// passes every body past its first 512 bytes to the connection's own
// ReadFrom, and that makes a fresh 32 KiB buffer for each response whose
// body is not a file or a connection.
type responseCopy struct {
	w   io.Writer
	buf [32 << 10]byte
}

func (c *responseCopy) Write(p []byte) (int, error) { return c.w.Write(p) }

// copyPool recycles response copies.
var copyPool = sync.Pool{New: func() any { return new(responseCopy) }}

// relay copies an upstream response body to the client. A body that
// writes itself out (http.NoBody, an in-memory reader) does so directly;
// any other is copied through a pooled buffer, write by write, so a
// chunked response streams as it arrives.
func relay(w io.Writer, body io.Reader) {
	if _, ok := body.(io.WriterTo); ok {
		_, _ = io.Copy(w, body)
		return
	}
	c := copyPool.Get().(*responseCopy)
	c.w = w
	_, _ = io.CopyBuffer(c, body, c.buf[:])
	c.w = nil
	copyPool.Put(c)
}

// copyEndToEnd assigns src's end-to-end headers into dst under their
// canonical keys, each value slice shared capped at its length. It
// drops the hop-by-hop headers of RFC 9110 §7.6.1 — the fixed set and
// every header src's Connection names — so neither a client nor the
// upstream can steer the other hop's connection (a client's
// "Connection: close" would otherwise cost the proxy its upstream
// keep-alive). A request (inbound) also drops the identity headers a
// client might try to smuggle past the proxy's own assertion.
func copyEndToEnd(dst, src http.Header, inbound bool) {
	var conn []string
	for k, vs := range src {
		k = http.CanonicalHeaderKey(k)
		switch {
		case k == "Connection" && conn == nil:
			conn = vs
			continue
		case k == "Connection":
			conn = append(conn[:len(conn):len(conn)], vs...)
			continue
		case hopByHop(k), inbound && identityHeader(k):
			continue
		}
		if prev, ok := dst[k]; ok && len(prev) > 0 {
			// Two spellings of one key: keep both values, as Header.Add
			// would.
			dst[k] = append(prev[:len(prev):len(prev)], vs...)
			continue
		}
		dst[k] = vs[:len(vs):len(vs)]
	}
	if len(conn) > 0 {
		for k := range src {
			if k = http.CanonicalHeaderKey(k); connectionNames(conn, k) {
				delete(dst, k)
			}
		}
	}
}

// hopByHop reports whether a canonical key is one of RFC 9110's
// connection-specific headers, httputil.ReverseProxy's list.
func hopByHop(k string) bool {
	switch k {
	case "Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
		"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// identityHeader reports whether a canonical key asserts an identity
// upstream; only the proxy sets these.
func identityHeader(k string) bool {
	switch k {
	case "X-Forwarded-User", "X-Forwarded-Group", "X-Remote-User", "X-Remote-Group":
		return true
	}
	return false
}

// connectionNames reports whether any Connection value lists key among
// its comma-separated options. Header names compare case-insensitively,
// so no option is canonicalized (allocated) to compare it.
func connectionNames(conn []string, key string) bool {
	for _, v := range conn {
		for v != "" {
			var opt string
			opt, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(textproto.TrimString(opt), key) {
				return true
			}
		}
	}
	return false
}
