package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"strings"
)

// The /v1/color body decoder. A single byte scanner covers the canonical
// subset of ColorRequest's JSON: exact lower-case field names, each at most
// once per object; ASCII strings, keys included, with no raw control bytes,
// whose escapes are JSON's short ones (\" \\ \/ \b \f \n \r \t) or \u00XX
// below 0x80, which covers every escape json.Marshal writes for ASCII text;
// integers of at most 18 digits with no fraction or exponent; true/false;
// and the graph (n, edges as 2-int arrays) and gen objects. On any other
// input the scanner declines and encoding/json decodes the body
// reflectively, so such bodies keep their exact values and error texts. On
// every input the scanner accepts, encoding/json produces a DeepEqual value
// (FuzzColorRequest).

// parseBody decodes a ColorRequest body the way a strict json.Decoder reading
// r does: the first JSON value is decoded, unknown fields are rejected, and
// anything after the value is ignored. The body is read into a pooled buffer
// and scanned in place; encoding/json runs only when the scanner declines.
func parseBody(r io.Reader) (*ColorRequest, error) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer putJSONBuf(buf)
	buf.Reset()
	_, rerr := buf.ReadFrom(r)
	req := &ColorRequest{}
	if rerr == nil && scanColorRequest(buf.Bytes(), req) {
		return req, nil
	}
	*req = ColorRequest{}
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		// The decoder sees the bytes that arrived, then the read error (an
		// over-limit body, a dropped client), as when it read r itself: a
		// value complete before the error still decodes.
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	return req, nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanColorRequest decodes data into req, which must be zero, and reports
// whether data was in the canonical subset; on false req holds partial
// values. Bytes after the top-level object are ignored.
func scanColorRequest(data []byte, req *ColorRequest) bool {
	s := reqScanner{b: data}
	var seen uint32
	return s.object(func(key string) bool {
		switch key {
		case "algo":
			return once(&seen, 0) && s.str(&req.Algo)
		case "backend":
			return once(&seen, 1) && s.str(&req.Backend)
		case "seed":
			return once(&seen, 2) && s.int64(&req.Seed)
		case "paper":
			return once(&seen, 3) && s.bool(&req.Paper)
		case "edge_list":
			return once(&seen, 4) && s.str(&req.EdgeList)
		case "graph":
			return once(&seen, 5) && s.graph(&req.Graph)
		case "gen":
			return once(&seen, 6) && s.gen(&req.Gen)
		case "file":
			return once(&seen, 7) && s.str(&req.File)
		case "async":
			return once(&seen, 8) && s.bool(&req.Async)
		case "timeout_ms":
			return once(&seen, 9) && s.int64(&req.TimeoutMS)
		case "no_cache":
			return once(&seen, 10) && s.bool(&req.NoCache)
		case "shards":
			return once(&seen, 11) && s.int(&req.Shards)
		case "check":
			return once(&seen, 12) && s.bool(&req.Check)
		case "idempotency_key":
			return once(&seen, 13) && s.str(&req.IdempotencyKey)
		}
		return false
	})
}

// reqScanner walks a request body; every method returns false to decline.
type reqScanner struct {
	b []byte
	i int
}

func (s *reqScanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// byte consumes c if it is the next byte after whitespace.
func (s *reqScanner) byte(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// once marks field bit k seen, declining a repeated key: encoding/json lets
// the last scalar win and merges repeated objects into the first.
func once(seen *uint32, k uint) bool {
	if *seen&(1<<k) != 0 {
		return false
	}
	*seen |= 1 << k
	return true
}

// object scans one object, calling field with each key to scan its value.
func (s *reqScanner) object(field func(key string) bool) bool {
	if !s.byte('{') {
		return false
	}
	if s.byte('}') {
		return true
	}
	for {
		var key string
		if !s.str(&key) || !s.byte(':') || !field(key) {
			return false
		}
		if s.byte('}') {
			return true
		}
		if !s.byte(',') {
			return false
		}
	}
}

// str scans an ASCII string value, decoding the escapes unescape takes.
func (s *reqScanner) str(dst *string) bool {
	if !s.byte('"') {
		return false
	}
	b, start := s.b, s.i
	end, escaped := start, false
	for ; end < len(b) && b[end] != '"'; end++ {
		if b[end] == '\\' {
			escaped = true
			end++
		}
	}
	if end >= len(b) {
		return false
	}
	raw := b[start:end]
	var sb strings.Builder
	if escaped {
		sb.Grow(len(raw))
	}
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c < 0x20 || c >= 0x80 {
			return false
		}
		if c == '\\' {
			var n int
			if c, n = unescape(raw[i+1:]); n == 0 {
				return false
			}
			i += n
		}
		if escaped {
			sb.WriteByte(c)
		}
	}
	if escaped {
		*dst = sb.String()
	} else {
		*dst = string(raw)
	}
	s.i = end + 1
	return true
}

// unescape decodes the escape that follows a backslash at the start of t and
// returns its byte and length, or length 0 for an escape outside the subset:
// a \u escape of a non-ASCII code point, or one encoding/json rejects.
func unescape(t []byte) (byte, int) {
	const short, decoded = `"\/bfnrt`, "\"\\/\b\f\n\r\t"
	if len(t) > 0 {
		if k := strings.IndexByte(short, t[0]); k >= 0 {
			return decoded[k], 1
		}
	}
	var c [1]byte
	if len(t) < 5 || string(t[:3]) != "u00" {
		return 0, 0
	}
	if _, err := hex.Decode(c[:], t[3:5]); err != nil || c[0] >= 0x80 {
		return 0, 0
	}
	return c[0], 5
}

func (s *reqScanner) bool(dst *bool) bool {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		s.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
	default:
		return false
	}
	return true
}

func (s *reqScanner) int64(dst *int64) bool {
	s.ws()
	v, next, ok := scanInt(s.b, s.i)
	if ok {
		*dst, s.i = v, next
	}
	return ok
}

func (s *reqScanner) int(dst *int) bool {
	var v int64
	if !s.int64(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// scanInt parses an integer of 1 to 18 digits in JSON's syntax (no leading
// zeros) at b[i:] and returns it with the index past it. A fraction or
// exponent, which encoding/json rejects for integer fields, is left for the
// caller's next-token check to decline.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for end := min(len(b), start+19); i < end; i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	digits := i - start
	if digits == 0 || digits > 18 || (digits > 1 && b[start] == '0') {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

func (s *reqScanner) graph(dst **GraphSpec) bool {
	g := &GraphSpec{}
	*dst = g
	var seen uint32
	return s.object(func(key string) bool {
		switch key {
		case "n":
			return once(&seen, 0) && s.int(&g.N)
		case "edges":
			return once(&seen, 1) && s.edges(&g.Edges)
		}
		return false
	})
}

// edges scans an array of [u,v] pairs. "[]" decodes to an empty, non-nil
// slice, as in encoding/json.
func (s *reqScanner) edges(dst *[][2]int) bool {
	if !s.byte('[') {
		return false
	}
	// A pair is 16 bytes decoded, so this presize never allocates more than
	// the rest of the body, whatever it holds; a compact body of small ids
	// outgrows it once or twice.
	edges := make([][2]int, 0, (len(s.b)-s.i)/16)
	if !s.byte(']') {
		for {
			var e [2]int
			if !s.byte('[') || !s.int(&e[0]) || !s.byte(',') || !s.int(&e[1]) || !s.byte(']') {
				return false
			}
			edges = append(edges, e)
			if s.byte(']') {
				break
			}
			if !s.byte(',') {
				return false
			}
		}
	}
	*dst = edges
	return true
}

func (s *reqScanner) gen(dst **GenSpec) bool {
	g := &GenSpec{}
	*dst = g
	var seen uint32
	return s.object(func(key string) bool {
		switch key {
		case "family":
			return once(&seen, 0) && s.str(&g.Family)
		case "m":
			return once(&seen, 1) && s.int(&g.M)
		case "delta":
			return once(&seen, 2) && s.int(&g.Delta)
		}
		return false
	})
}
