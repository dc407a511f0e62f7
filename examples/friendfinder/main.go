// Friendfinder: the LBS scenario of the paper's Section 1 — a mobile user
// asks which friends have any chance of being their nearest neighbor
// during lunch hour, given that everyone's position is known only up to an
// uncertainty disk. Exercises the UQL surface (Categories 1-4 and the
// fixed-time variant) end to end: each statement compiles to a Request
// that the phone POSTs to the HTTP gateway's /v1/query.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro"
)

func main() {
	// Server side: an LBS provider hosting the MOD behind the gateway.
	store, err := repro.NewUniformStore(0.3) // phone-GPS-grade uncertainty
	if err != nil {
		log.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(7), 200)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		log.Fatal(err)
	}
	gw, err := repro.NewGateway(repro.GatewayOptions{
		Backend: repro.EngineGatewayBackend{Eng: repro.NewEngine(0), Store: store},
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go gw.Serve(l)
	defer gw.Shutdown(context.Background())
	url := "http://" + l.Addr().String() + "/v1/query"
	fmt.Printf("LBS MOD with %d users behind %s\n\n", store.Len(), url)

	// Client side: the user's phone compiles each question and asks it.
	query := func(req repro.Request) repro.Result {
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("query status %d", resp.StatusCode)
		}
		var res repro.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			log.Fatal(err)
		}
		return res
	}
	ask := func(desc, stmt string) {
		req, ok, err := repro.CompileUQL(stmt)
		if err != nil || !ok {
			log.Fatalf("compile %q: ok=%v err=%v", stmt, ok, err)
		}
		res := query(req)
		answer := fmt.Sprint(res.OIDs)
		if res.IsBool {
			answer = fmt.Sprint(res.Bool)
		}
		fmt.Printf("%s\n  %s\n  → %s %s (%d/%d candidates survived pruning)\n\n",
			desc, stmt, res.Kind, answer, res.Explain.Survivors, res.Explain.Candidates)
	}

	ask("Who could be my (user 1's) nearest friend at some point this hour? (UQ31)",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	ask("Who could be nearest at least 40% of the hour? (UQ33)",
		"SELECT T FROM MOD WHERE ATLEAST 40% Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	ask("Could user 5 ever be among my two most probable nearest friends? (UQ21)",
		"SELECT 5 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityKNN(5, 1, Time, 2) > 0")

	ask("Who can be nearest exactly at lunch (t = 30)? (fixed-time variant)",
		"SELECT T FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	ask("Is anyone guaranteed a shot at being nearest the whole hour? (UQ32)",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	// A Request needs no UQL: the same descriptor is the wire contract
	// for every variant, here a rank-2 retrieval.
	res := query(repro.Request{Kind: repro.KindUQ41, QueryOID: 1, Tb: 0, Te: 60, K: 2})
	fmt.Printf("direct %s → %v (%d/%d candidates survived pruning)\n",
		res.Kind, res.OIDs, res.Explain.Survivors, res.Explain.Candidates)
}
