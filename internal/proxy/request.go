package proxy

import (
	"bytes"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Request is the enforcement point's front end: everything it learns
// from the wire before it consults policy. The body tag, the
// routing-metadata scan and the decode fallback run on first use and are
// remembered, so however many layers look at a request — a tier's front
// door deriving a shard key, then the owning replica's proxy resolving
// and validating — its body is read once, tagged once, scanned at most
// once and decoded at most once, and every layer sees the same
// (namespace, kind). The tag comes first: it keys the scan memo (a body
// scanned before, by any request, is not walked again) and then the
// registry's decision cache. A Request owns a pooled buffer:
// its builder hands it to Proxy.Serve or calls Release, and must not use
// it after its handler returns.
type Request struct {
	body []byte
	// buf backs body; nil once released or handed to the upstream request.
	buf  *bytes.Buffer
	path string

	// failCode, when non-zero, is the status a body-level failure denies
	// the request with (400 unreadable, 413 oversized, 415 unsupported
	// content type); failReason is its audit-able reason.
	failCode   int
	failReason string

	// inspect marks a request that carries a specification to validate:
	// a create/update/patch with a non-empty body.
	inspect bool
	format  bodyFormatKind

	tagged  bool
	bodyTag registry.Tag

	// memo answers the scan of a body seen before; memoed is how it
	// answered this one, for the telemetry hub of whoever serves it.
	memo              *scanMemo
	memoed            telemetry.ScanOutcome
	scanDone, scanned bool
	meta              compile.RawMeta
	decodeDone        bool
	obj               object.Object
	decodeErr         error
}

// maxInspectBytes bounds the request body the proxy is willing to
// buffer for inspection. Larger bodies are denied, not truncated: a
// truncated parse could silently validate a prefix of the attacker's
// actual object.
const maxInspectBytes = 4 << 20

// bodyPool recycles request-body buffers across requests: the enforcement
// point reads every body it inspects, and steady-state traffic should
// not allocate a fresh buffer (the single largest allocation of the
// allowed-request path) per request. A buffer the pool has to make
// starts at newBodyCap, so a typical manifest is read into it without
// a doubling.
var bodyPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, newBodyCap)) }}

const newBodyCap = 4 << 10

// maxPooledBody caps the buffers the pool retains; a rare 4 MiB body
// should not pin 4 MiB per pool slot forever.
const maxPooledBody = 256 << 10

func putBody(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// ReadRequest reads and classifies one request. It never fails: an
// unreadable body (mid-stream disconnect), an oversized body, or an
// unsupported content type is recorded on the Request as its own
// fail-closed outcome, which Proxy.Serve turns into a denial record.
func ReadRequest(r *http.Request) Request {
	q := Request{path: r.URL.Path, memo: processScanMemo}
	if r.Body != nil {
		q.buf = bodyPool.Get().(*bytes.Buffer)
		q.buf.Reset()
		err := readBody(q.buf, r.Body, maxInspectBytes+1)
		r.Body.Close()
		if err != nil {
			q.failCode, q.failReason = http.StatusBadRequest, "request body could not be read: "+err.Error()
			return q
		}
		q.body = q.buf.Bytes()
	}
	// Oversized bodies are denied for every method, before the
	// inspection branch: the read above is capped, so forwarding would
	// silently hand upstream a truncated request.
	if len(q.body) > maxInspectBytes {
		q.failCode, q.failReason = http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d MiB inspection limit", maxInspectBytes>>20)
	} else if inspectable(r.Method) && len(q.body) > 0 {
		q.inspect = true
		contentType := r.Header.Get("Content-Type")
		var ok bool
		if q.format, ok = bodyFormat(contentType); !ok {
			q.failCode, q.failReason = http.StatusUnsupportedMediaType,
				fmt.Sprintf("unsupported content type %q for an inspected request", contentType)
		}
	}
	return q
}

// readBody reads body into buf until EOF or until buf holds limit
// bytes, the bound io.LimitReader would set without allocating one.
func readBody(buf *bytes.Buffer, body io.Reader, limit int) error {
	for buf.Len() < limit {
		if buf.Available() == 0 {
			buf.Grow(bytes.MinRead)
		}
		p := buf.AvailableBuffer()
		n, err := body.Read(p[:min(cap(p), limit-buf.Len())])
		buf.Write(p[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Release returns the body buffer to the pool. Idempotent, and a no-op
// once Proxy.Serve has consumed the request.
func (q *Request) Release() {
	putBody(q.buf)
	q.buf, q.body = nil, nil
}

// tag is the body's tag (registry.BodyTag), computed once.
func (q *Request) tag() *registry.Tag {
	if !q.tagged {
		q.tagged = true
		q.bodyTag = registry.BodyTag(q.body)
	}
	return &q.bodyTag
}

// scan extracts the routing metadata (kind, namespace, name) straight
// off the wire bytes' prologue, once — and once per distinct body: the
// memo is asked first, and told the result of a scan it could not
// answer. A successful scan guarantees the prologue is well formed and
// that, if the body decodes, the extracted fields equal the decoded
// accessors; whether it decodes is left to the match or the decoder.
func (q *Request) scan() bool {
	if q.scanDone {
		return q.scanned
	}
	q.scanDone = true
	key := newMemoKey(q.tag())
	var hit bool
	if q.meta, q.scanned, hit = q.memo.get(&key, q.format, q.body); hit {
		q.memoed = telemetry.ScanMemoHit
		return q.scanned
	}
	if q.format == formatYAML {
		q.meta, q.scanned = compile.ScanRawYAMLMeta(q.body)
	} else {
		q.meta, q.scanned = compile.ScanRawMeta(q.body)
	}
	q.memoed = telemetry.ScanMemoMiss
	if q.memo.put(&key, q.format, q.body, q.meta, q.scanned) {
		q.memoed = telemetry.ScanMemoEvict
	}
	return q.scanned
}

// decode decodes the body into a document, once. JSON goes through the
// precision-preserving decoder (object.ParseJSON): numbers normalize to
// int64 when exact, so large integers survive to the validators instead
// of being rounded to the nearest float64 before the policy sees them.
// Its errors quote a bounded excerpt of the body, which is what lets
// decide copy them into the 403 and the retained denial record.
func (q *Request) decode() (object.Object, error) {
	if !q.decodeDone {
		q.decodeDone = true
		if q.format == formatYAML {
			q.obj, q.decodeErr = object.ParseManifest(q.body)
		} else {
			q.obj, q.decodeErr = object.ParseJSON(q.body)
		}
	}
	return q.obj, q.decodeErr
}

// TargetBytes reports the (namespace, kind) policy resolution runs on,
// the one place the precedence is written down: the body's own fields
// (off the decoded document when one exists, else off the wire-byte
// scan, else by decoding), then the URL path's namespace for a body that
// omits metadata.namespace. Requests that are not inspected, failed on
// the way in, or neither scan nor decode have only the path namespace.
// A body whose prologue scans but whose rest does not decode is named
// by its prologue; the replica it routes to rejects it exactly as the
// classic path does. A tier that shards by the same pair routes by
// construction to a replica that resolves the request.
//
// On the scan the pair is the scan's own byte slices, which alias the
// request body: read them before the request is released, and do not
// write them. A pair taken from the decoded document or the path is a
// copy.
func (q *Request) TargetBytes() (namespace, kind []byte) {
	if q.inspect && q.failCode == 0 {
		if !q.decodeDone && q.scan() {
			namespace, kind = q.meta.Namespace, q.meta.Kind
		} else if obj, err := q.decode(); err == nil {
			namespace, kind = []byte(obj.Namespace()), []byte(obj.Kind())
		}
	}
	if len(namespace) == 0 {
		namespace = []byte(requestNamespace(q.path))
	}
	return namespace, kind
}

// Target is TargetBytes as strings.
func (q *Request) Target() (namespace, kind string) {
	ns, k := q.TargetBytes()
	return string(ns), string(k)
}

// ident names the object for audit records and traces; on the raw path
// it comes from the wire-byte scan, which matches the decoded accessors
// of a body that decodes. Once a decode has failed it names nothing: the
// prologue of a body that is not an object names no object.
func (q *Request) ident() (kind, name string) {
	switch {
	case q.decodeDone:
		if q.decodeErr == nil {
			return q.obj.Kind(), q.obj.Name()
		}
	case q.scanned:
		return string(q.meta.Kind), string(q.meta.Name)
	}
	return "", ""
}

// requestNamespace extracts the namespace segment of an API request path
// ("/api/v1/namespaces/{ns}/..." or "/apis/{g}/{v}/namespaces/{ns}/..."),
// for requests whose body omits metadata.namespace.
func requestNamespace(path string) string {
	const tok = "/namespaces/"
	i := strings.Index(path, tok)
	if i < 0 {
		return ""
	}
	ns := path[i+len(tok):]
	if j := strings.IndexByte(ns, '/'); j >= 0 {
		ns = ns[:j]
	}
	return ns
}

// inspectable reports whether the method carries a specification to
// validate. Reads and deletes carry no object specification; the paper's
// policies constrain what may be *created or reconfigured*.
func inspectable(method string) bool {
	switch method {
	case http.MethodPost, http.MethodPut, http.MethodPatch:
		return true
	}
	return false
}

// bodyFormat values route an inspected body to its decoder family.
type bodyFormatKind int

const (
	formatJSON bodyFormatKind = iota
	formatYAML
)

// bodyFormat classifies the Content-Type of an inspected request. The
// header is parsed as a proper media type (RFC 2045), so parameters a
// real client attaches ("application/json; charset=utf-8") don't change
// the verdict — a substring match would also have waved through any
// type that merely *mentions* json ("application/not-json-at-all"),
// which is exactly the kind of routing ambiguity an enforcement point
// cannot afford. Unknown base types stay fail-closed (415): a body the
// proxy would misparse is a body it must not vouch for. An empty
// content type defaults to JSON (kubectl and client-go always set one;
// bare tooling often doesn't). The two spellings kubectl and client-go
// send are matched before the parser runs, which is what nearly every
// request pays for.
func bodyFormat(contentType string) (bodyFormatKind, bool) {
	switch contentType {
	case "", "application/json":
		return formatJSON, true
	case "application/yaml":
		return formatYAML, true
	}
	mediaType, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return 0, false
	}
	switch mediaType {
	case "application/json", "text/json":
		return formatJSON, true
	case "application/yaml", "text/yaml", "application/x-yaml":
		return formatYAML, true
	}
	return 0, false
}
