package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"

	"repro/internal/server"
	"repro/internal/sim"
)

// audit checks, on a server restarted after SIGKILL, that every
// acknowledged write survived: each document's content hash and
// /stat counts, its view registry, and every view's answers. It returns
// the number of checks made and the problems found.
func audit(hc *http.Client, base string, o *oracle) (int, []string) {
	checks := 0
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	get := func(path string) (int, []byte, error) {
		resp, err := hc.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	for _, f := range o.final {
		checks++
		status, body, err := get("/docs/" + f.name)
		switch {
		case err != nil:
			fail("audit: read %s: %v", f.name, err)
			continue
		case status != http.StatusOK:
			fail("audit: read %s: status %d", f.name, status)
			continue
		case sha256.Sum256(body) != f.hash:
			fail("audit: %s content differs from every acknowledged write (lost or phantom update)", f.name)
		}

		checks++
		var info server.DocInfo
		if status, body, err = get("/docs/" + f.name + "/stat"); err != nil || status != http.StatusOK {
			fail("audit: stat %s: status %d, %v", f.name, status, err)
		} else if err := json.Unmarshal(body, &info); err != nil {
			fail("audit: stat %s: %v", f.name, err)
		} else if info.Nodes != f.nodes || info.Events != f.events {
			fail("audit: stat %s: %d nodes / %d events, want %d / %d", f.name, info.Nodes, info.Events, f.nodes, f.events)
		}

		checks++
		var list server.ViewListResponse
		if status, body, err = get("/docs/" + f.name + "/views"); err != nil || status != http.StatusOK {
			fail("audit: list views %s: status %d, %v", f.name, status, err)
			continue
		}
		if err := json.Unmarshal(body, &list); err != nil {
			fail("audit: list views %s: %v", f.name, err)
			continue
		}
		listed := make(map[string]string, len(list.Views))
		for _, v := range list.Views {
			listed[v.Name] = v.Query
		}
		if !maps.Equal(listed, f.views) {
			fail("audit: %s lists views %v, want %v", f.name, listed, f.views)
		}
		for _, name := range slices.Sorted(maps.Keys(f.views)) {
			checks++
			status, body, err := get("/docs/" + f.name + "/views/" + name)
			if err != nil {
				fail("audit: view %s/%s: %v", f.name, name, err)
				continue
			}
			if _, err := f.answer[name].check(sim.OpViewRead, status, body); err != nil {
				fail("audit: view %s/%s: %v", f.name, name, err)
			}
		}
	}
	return checks, problems
}
