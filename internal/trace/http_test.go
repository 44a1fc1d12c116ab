package trace_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"locofs/internal/obs"
	"locofs/internal/trace"
)

// admin is the admin surface of a process named "dms" with tracer tr and
// hot-key sketch hot (either nil).
func admin(tr *trace.Tracer, hot *trace.TopK) http.Handler {
	p := obs.New(obs.Config{Name: "dms", Tracer: tr})
	return p.Admin(p.For("dms", obs.Export{}), nil, nil, hot, nil)
}

func TestTracesHandlerJSON(t *testing.T) {
	tr := trace.New(trace.Config{Sample: 1})
	root := tr.StartSpan(0xabc, 0, "Readdir", "client")
	child := root.StartChild("ReaddirFiles")
	child.SetSub(0)
	child.Finish()
	root.Finish()

	h := admin(tr, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list JSON: %v\n%s", err, rec.Body)
	}
	if len(list) != 1 || list[0]["trace"] != "0xabc" || list[0]["root"] != "Readdir" {
		t.Fatalf("list = %+v", list)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/0xabc", nil))
	var tree struct {
		Trace string `json:"trace"`
		Spans int    `json:"spans"`
		Tree  []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
				Sub  *int   `json:"sub"`
			} `json:"children"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatalf("tree JSON: %v\n%s", err, rec.Body)
	}
	if tree.Spans != 2 || len(tree.Tree) != 1 || tree.Tree[0].Name != "Readdir" {
		t.Fatalf("tree = %+v", tree)
	}
	kids := tree.Tree[0].Children
	if len(kids) != 1 || kids[0].Name != "ReaddirFiles" || kids[0].Sub == nil || *kids[0].Sub != 0 {
		t.Fatalf("children = %+v", kids)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/0xdead", nil))
	if rec.Code != 404 {
		t.Errorf("unknown trace returned %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/notanid", nil))
	if rec.Code != 400 {
		t.Errorf("bad trace id returned %d, want 400", rec.Code)
	}
}

func TestHotHandlerJSON(t *testing.T) {
	tk := trace.NewTopK(8)
	for i := 0; i < 50; i++ {
		tk.Touch("/hot")
	}
	tk.Touch("/cold")
	h := admin(nil, tk)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hot?n=1", nil))
	body := rec.Body.String()
	var out []struct {
		Source string         `json:"source"`
		Total  uint64         `json:"total"`
		Top    []trace.HotKey `json:"top"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("hot JSON: %v\n%s", err, body)
	}
	if len(out) != 1 || out[0].Source != "dms" || out[0].Total != 51 {
		t.Fatalf("hot = %+v", out)
	}
	if len(out[0].Top) != 1 || out[0].Top[0].Key != "/hot" || out[0].Top[0].Count != 50 {
		t.Fatalf("top = %+v", out[0].Top)
	}
	// Without a sketch the list is empty, not null.
	rec = httptest.NewRecorder()
	admin(nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hot", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != "[]" {
		t.Errorf("no sketch: /debug/hot = %s", got)
	}
}
