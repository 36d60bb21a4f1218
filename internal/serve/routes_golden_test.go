package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRouteTableGolden pins the daemon's full HTTP surface — every
// method, pattern, and endpoint name — against
// testdata/routes.golden. A route added, removed, or renamed is an API
// contract change: update the golden file deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/serve -run TestRouteTableGolden
//
// and say so in the change description.
func TestRouteTableGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "routes.golden")
	got := RouteTable()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden route table (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("route table drifted from %s — an API contract change.\ngot:\n%s\nwant:\n%s\n"+
			"If intended, regenerate with UPDATE_GOLDEN=1.", goldenPath, got, want)
	}
}

// TestRouteTableInvariants enforces the structural rules the golden file
// alone cannot: every (method, pattern) pair is mounted once, network-
// scoped routes live under /v1/nets/{net}/ (withNet resolves the
// network from that path value) and end in their endpoint name, and
// fleet-wide routes carry no {net}.
func TestRouteTableInvariants(t *testing.T) {
	seen := make(map[string]bool)
	for _, rt := range routes {
		key := rt.method + " " + rt.pattern
		if seen[key] {
			t.Errorf("%s mounted twice", key)
		}
		seen[key] = true
		scoped := strings.HasPrefix(rt.pattern, "/v1/nets/{net}/")
		switch rt.kind {
		case routeQuery, routeNetCtl:
			if !scoped {
				t.Errorf("%s: network-scoped route outside /v1/nets/{net}/", rt.pattern)
			}
			if !strings.HasSuffix(rt.pattern, "/"+rt.endpoint) {
				t.Errorf("%s: path does not end in its endpoint name %q", rt.pattern, rt.endpoint)
			}
		default:
			if strings.Contains(rt.pattern, "{net}") {
				t.Errorf("%s: fleet-wide route carries a {net} segment", rt.pattern)
			}
		}
	}
}
