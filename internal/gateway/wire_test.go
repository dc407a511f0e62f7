package gateway

// The /v1/ingest wire contract: the gateway speaks the shard RPC's update
// codec (modserver.WireTraj in, modserver.WireApplied out), retirements
// included, and the committed OpenAPI schemas name exactly those types'
// JSON fields.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/api/openapi"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/modserver"
	"repro/internal/testcert"
)

// TestIngestRetire: a retirement through /v1/ingest leaves the store on a
// local engine and on a router over loopback shards alike; a later
// /v1/query about the OID answers 404 unknown_oid.
func TestIngestRetire(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	local, trs := buildStore(t, 40, equivSeed)
	sharded, _ := buildStore(t, 40, equivSeed)
	stores, err := cluster.SplitStore(sharded, 2, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(context.Background(), startTLSShards(t, stores, pair, nil), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	topologies := []struct {
		name string
		opts Options
	}{
		{"engine", Options{Backend: EngineBackend{Eng: engine.New(0), Store: local}, Hub: newTestHub(t, local)}},
		{"router", Options{Backend: router, Hub: cluster.NewRouterHub(router)}},
	}
	q, gone := trs[0].OID, trs[5].OID
	for _, top := range topologies {
		t.Run(top.name, func(t *testing.T) {
			_, base, client := startGateway(t, top.opts, nil)
			status, body := postJSON(t, client, base+"/v1/ingest", "",
				ingestRequest{Updates: []modserver.WireTraj{{OID: gone, Retire: true}}})
			if status != http.StatusOK {
				t.Fatalf("retire: status %d (body %s)", status, body)
			}
			var ir ingestResponse
			if err := json.Unmarshal(body, &ir); err != nil {
				t.Fatal(err)
			}
			if len(ir.Applied) != 1 || ir.Applied[0].OID != gone || !ir.Applied[0].Retired {
				t.Fatalf("retire outcome = %s", body)
			}
			status, body = postJSON(t, client, base+"/v1/query", "",
				engine.Request{Kind: engine.KindUQ11, QueryOID: q, OID: gone, Tb: equivTb, Te: equivTe})
			if status != http.StatusNotFound || decodeAPIError(t, body).Code != "unknown_oid" {
				t.Fatalf("query about retired oid: status %d body %s", status, body)
			}
		})
	}
}

// schemaProperties reads the property names of components.schemas.<name>
// from the OpenAPI YAML. It is a minimal indentation-based reader: each
// `key:` line nests under the nearest less-indented key above it.
func schemaProperties(t *testing.T, spec []byte, name string) []string {
	t.Helper()
	type frame struct {
		indent int
		key    string
	}
	want := []string{"components", "schemas", name, "properties"}
	var stack []frame
	var props []string
	for _, line := range strings.Split(string(spec), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, "- ") {
			continue
		}
		key, _, ok := strings.Cut(trimmed, ":")
		if !ok {
			continue
		}
		indent := len(line) - len(trimmed)
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == len(want) {
			match := true
			for i, f := range stack {
				match = match && f.key == want[i]
			}
			if match {
				props = append(props, key)
			}
		}
		stack = append(stack, frame{indent, key})
	}
	if len(props) == 0 {
		t.Fatalf("spec has no properties for schema %s", name)
	}
	slices.Sort(props)
	return props
}

// jsonFields returns the JSON names of a struct type's fields.
func jsonFields(v any) []string {
	var out []string
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestOpenAPIWireSchemas: the spec's Update and Applied schemas name
// exactly the JSON fields of the Go types /v1/ingest decodes and encodes,
// so the committed contract cannot drift from the wire again.
func TestOpenAPIWireSchemas(t *testing.T) {
	for _, c := range []struct {
		schema string
		typ    any
	}{
		{"Update", modserver.WireTraj{}},
		{"Applied", modserver.WireApplied{}},
	} {
		got, want := schemaProperties(t, openapi.Spec, c.schema), jsonFields(c.typ)
		if !slices.Equal(got, want) {
			t.Errorf("schema %s properties %v, Go type %T fields %v", c.schema, got, c.typ, want)
		}
	}
	if fmt.Sprint(schemaProperties(t, openapi.Spec, "ApiError")) != "[code message]" {
		t.Error("the YAML reader misreads a known schema")
	}
}
