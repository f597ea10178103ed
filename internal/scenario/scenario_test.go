package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `{
  "arch": "CEIO",
  "duration_ms": 2,
  "warmup_ms": 1,
  "flows": [
    {"id": 1, "kind": "rpc", "pkt_size": 144},
    {"id": 2, "kind": "dfs", "pkt_size": 1024, "chunk_pkts": 1024, "start_ms": 1.5},
    {"id": 3, "kind": "echo", "stop_ms": 2}
  ]
}`

func TestLoadAndRun(t *testing.T) {
	spec, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Arch != "CEIO" || res.TotalMpps <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Flows) == 0 {
		t.Fatal("no per-flow results")
	}
	// Flow 3 was removed at 2ms; flow 2 started at 1.5ms.
	for _, fr := range res.Flows {
		if fr.ID == 3 {
			t.Fatal("stopped flow should not be in final results")
		}
		if fr.ID == 2 && fr.Delivered == 0 {
			t.Fatal("late-starting flow delivered nothing")
		}
	}
	// Result must serialise cleanly for tooling.
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"arch":"CEIO","duration_ms":1,"bogus":1,"flows":[{"id":1,"kind":"rpc"}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []string{
		`{"arch":"Nope","duration_ms":1,"flows":[{"id":1,"kind":"rpc"}]}`,
		`{"arch":"CEIO","duration_ms":0,"flows":[{"id":1,"kind":"rpc"}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc"},{"id":1,"kind":"echo"}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"wat"}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc","start_ms":2,"stop_ms":1}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc","pipeline":["wat"]}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"dfs","pipeline":["nat64"]}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc","start_ms":1e300}]}`,
		`{"arch":"CEIO","duration_ms":1,"warmup_ms":-4,"flows":[{"id":1,"kind":"rpc"}]}`,
		`{"arch":"CEIO","duration_ms":1e300,"flows":[{"id":1,"kind":"rpc"}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc","pkt_size":-64}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc","pkt_size":100000}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"rpc","rate_gbps":-50}]}`,
		`{"arch":"CEIO","duration_ms":1,"flows":[{"id":1,"kind":"dfs","chunk_pkts":-7}]}`,
		`{"arch":"CEIO","duration_ms":5e12,"warmup_ms":5e12,"flows":[{"id":1,"kind":"rpc"}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestAllKindsAndRates(t *testing.T) {
	spec := &Spec{
		Arch: "Baseline", DurationMs: 1,
		Flows: []FlowSpec{
			{ID: 1, Kind: "rpc"},
			{ID: 2, Kind: "rpc-rdma"},
			{ID: 3, Kind: "dfs"},
			{ID: 4, Kind: "echo"},
			{ID: 5, Kind: "vxlan", RateGbps: 5, FixedRate: true},
		},
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 5 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	// The fixed-rate flow should deliver close to its pinned 5 Gbps.
	for _, fr := range res.Flows {
		if fr.ID == 5 && (fr.Gbps < 3 || fr.Gbps > 6) {
			t.Fatalf("fixed-rate flow delivered %.2f Gbps, want ~5", fr.Gbps)
		}
	}
}

func TestPipelineScenario(t *testing.T) {
	spec, err := Load(strings.NewReader(`{
	  "arch": "CEIO",
	  "duration_ms": 2,
	  "flows": [
	    {"id": 1, "kind": "rpc", "pkt_size": 144, "pipeline": ["nat64", "firewall"]},
	    {"id": 2, "kind": "dfs", "pkt_size": 1024, "chunk_pkts": 64}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMpps <= 0 {
		t.Fatalf("pipelined scenario delivered nothing: %+v", res)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	run := func(seed int64) float64 {
		spec, _ := Load(strings.NewReader(sample))
		spec.Seed = seed
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMpps
	}
	if run(7) != run(7) {
		t.Fatal("same seed must reproduce")
	}
}
