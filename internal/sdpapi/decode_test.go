package sdpapi

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// scanned are requests the scanner must take: what clients send, and the
// shapes of JSON it reads itself.
var scanned = []string{
	goldenRequest,
	`{}`,
	` { } `,
	`{"op":"stats"}`,
	"\t{\r\n\"op\" : \"query\" ,\n\"trace\":false }\n",
	`{"op":"register","doc":"<service name=\"a\">\n\t&amp;</service>"}`,
	`{"op":"query","doc":"\/\\\b\f\n\r\t\u0000\u001fé€😀 é € 😀 \u007f"}`,
	`{"name":"","token":"","doc":"","op":"","trace":true}`,
	`{"op":"deregister","name":"alice/ws"}`,
}

// declinedRequests are requests the scanner hands to encoding/json, one
// per reason, whether json reads them or refuses them.
var declinedRequests = []string{
	``,
	`null`,
	`[]`,
	`"op"`,
	`{"op":"stats","op":"query"}`,        // a key twice: json keeps the last
	`{"Op":"stats"}`,                     // json matches keys in any case
	`{"OP":"stats","op":"query"}`,        //
	`{"op":null}`,                        // null leaves the field alone
	`{"op":"query","trace":null}`,        //
	`{"op":1}`,                           // a number
	`{"trace":1}`,                        //
	`{"op":"query","trace":"true"}`,      // a string for a bool
	`{"trace":true,"op":true}`,           // a bool for a string
	`{"op":"query","extra":{"a":[1,2]}}`, // an unknown key
	`{"\u006fp":"query"}`,                // an escaped key
	`{"op":"\ud83d"}`,                    // half a surrogate pair
	`{"op":"\ude00\ud83d"}`,              //
	`{"op":"\ud83d\u0041"}`,              //
	"{\"op\":\"\xff\"}",                  // invalid UTF-8
	"{\"op\":\"\xed\xa0\x80\"}",          // an encoded surrogate
	"{\"op\":\"a\nb\"}",                  // a control character
	`{"op":"\x41"}`,                      // an unknown escape
	`{"op":"\u00g0"}`,                    // a bad hex digit
	`{"op":"query"`,                      // unterminated
	`{"op":"query",}`,                    // a trailing comma
	`{"op":"query"} {}`,                  // a second value
	`{"op":"query"}x`,                    //
	`{"op" "query"}`,                     // no colon
	`{"op":"query" "doc":""}`,            // no comma
	`{"doc":"<service/>","op":`,          // cut off
	`{"trace":tru}`,                      //
}

// checkAgainstJSON is the differential property: the scanner declines or
// returns exactly what json.Unmarshal returns without error, and
// DecodeRequest returns what json.Unmarshal returns, error text included.
// It reports whether the scanner took the request.
func checkAgainstJSON(t testing.TB, data []byte) bool {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(data, &want)
	got, err := DecodeRequest(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("DecodeRequest error %v, json's %v\n%q", err, wantErr, data)
	}
	if got != want {
		t.Fatalf("DecodeRequest read %+v, json %+v\n%q", got, want, data)
	}
	scannedReq, took := scanRequest(data)
	if took && (wantErr != nil || scannedReq != want) {
		t.Fatalf("scanner read %+v, json %+v (%v)\n%q", scannedReq, want, wantErr, data)
	}
	return took
}

func TestScannerTakesWhatClientsSend(t *testing.T) {
	for _, req := range []Request{
		{Op: OpQuery, Doc: `<service name="a"><required name="r"/></service>`},
		{Op: OpRegister, Doc: "<service name=\"ü & <€>\">\n\t</service>", Token: "sdp1.t.s"},
		{Op: OpDeregister, Name: "alice/ws"},
		{Op: OpStats},
		{Op: OpQuery, Doc: "x", Trace: true},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !checkAgainstJSON(t, data) {
			t.Errorf("scanner declined what json.Marshal writes: %s", data)
		}
	}
	for _, doc := range scanned {
		if !checkAgainstJSON(t, []byte(doc)) {
			t.Errorf("scanner declined %q", doc)
		}
	}
	for _, doc := range declinedRequests {
		if checkAgainstJSON(t, []byte(doc)) {
			t.Errorf("scanner took %q, which it has to decline", doc)
		}
	}
}

// TestDecodedDocumentIsItsOwn: the document outlives the datagram, whose
// buffer the front end reuses for the next one.
func TestDecodedDocumentIsItsOwn(t *testing.T) {
	for _, data := range []string{`{"op":"query","doc":"<service/>"}`, `{"op":"query","doc":"\u003cservice/\u003e"}`} {
		buf := []byte(data)
		req, err := DecodeRequest(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if req.Doc != "<service/>" || req.Op != OpQuery {
			t.Fatalf("after the buffer was reused the request reads %+v", req)
		}
	}
}

// TestDecodeRequestAllocs: a query datagram costs its document and nothing
// else; json.Unmarshal spends more than that on reflection.
func TestDecodeRequestAllocs(t *testing.T) {
	data := []byte(`{"op":"query","doc":"<service name=\"client\"></service>"}`)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeRequest of a query: %.0f allocations, want 1", allocs)
	}
}

// FuzzDecodeRequestEqualsJSON holds the scanner to encoding/json on
// arbitrary bytes: it never panics, never takes what json refuses, and
// never reads a request differently.
func FuzzDecodeRequestEqualsJSON(f *testing.F) {
	for _, doc := range append(append([]string(nil), scanned...), declinedRequests...) {
		f.Add([]byte(doc))
	}
	// A real advertisement, as a client marshals it.
	if doc, err := os.ReadFile(filepath.Join("..", "profile", "testdata", "media-center.xml")); err == nil {
		data, err := json.Marshal(Request{Op: OpRegister, Doc: string(doc)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, data)
	})
}

func BenchmarkDecodeRequest(b *testing.B) {
	doc, err := os.ReadFile(filepath.Join("..", "profile", "testdata", "media-center.xml"))
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(Request{Op: OpRegister, Doc: string(doc)})
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name string
		f    func([]byte) error
	}{
		{"scanner", func(d []byte) error { _, err := DecodeRequest(d); return err }},
		{"json", func(d []byte) error { var r Request; return json.Unmarshal(d, &r) }},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := dec.f(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
