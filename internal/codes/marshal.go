package codes

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Serialization of code tables. The paper's Section 3.2 assumes that
// "service advertisements and service requests already contain the codes":
// devices obtain encoded tables from whoever performed the offline
// classification instead of running a reasoner themselves. MarshalTable /
// UnmarshalTable give tables a wire form for exactly that distribution
// (cmd/sdpd could ship them to thin clients; tests ship them across
// "devices").

// tableDTO is the wire form of a Table.
type tableDTO struct {
	URI     string         `json:"uri"`
	Version string         `json:"version"`
	P       int            `json:"p"`
	K       int            `json:"k"`
	Members [][]string     `json:"members"` // class names per concept index
	Primary [][2]float64   `json:"primary"`
	Covers  [][][2]float64 `json:"covers"`
	Depth   []int          `json:"depth"`
	// Ancestors[i] lists (ancestor index, hops) pairs for concept i.
	Ancestors [][][2]int `json:"ancestors"`
}

// MarshalTable serializes a table.
func MarshalTable(t *Table) ([]byte, error) {
	n := len(t.codes)
	dto := tableDTO{
		URI:       t.uri,
		Version:   t.version,
		P:         t.params.P,
		K:         t.params.K,
		Members:   make([][]string, n),
		Primary:   make([][2]float64, n),
		Covers:    make([][][2]float64, n),
		Depth:     append([]int(nil), t.depth...),
		Ancestors: make([][][2]int, n),
	}
	for name, idx := range t.names {
		dto.Members[idx] = append(dto.Members[idx], name)
	}
	for i := range dto.Members {
		sort.Strings(dto.Members[i])
	}
	for i, c := range t.codes {
		dto.Primary[i] = [2]float64{c.Primary.Lo, c.Primary.Hi}
		for _, iv := range c.Covers {
			dto.Covers[i] = append(dto.Covers[i], [2]float64{iv.Lo, iv.Hi})
		}
		dto.Ancestors[i] = make([][2]int, 0, len(t.ancestors[i]))
		for _, a := range t.ancestors[i] {
			dto.Ancestors[i] = append(dto.Ancestors[i], [2]int{a.ancestor, a.levels})
		}
	}
	return json.Marshal(dto)
}

// UnmarshalTable deserializes a table produced by MarshalTable.
func UnmarshalTable(data []byte) (*Table, error) {
	var dto tableDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("codes: unmarshal table: %w", err)
	}
	params := Params{P: dto.P, K: dto.K}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(dto.Members)
	if len(dto.Primary) != n || len(dto.Covers) != n || len(dto.Depth) != n || len(dto.Ancestors) != n {
		return nil, fmt.Errorf("codes: inconsistent table payload (%d/%d/%d/%d/%d)",
			n, len(dto.Primary), len(dto.Covers), len(dto.Depth), len(dto.Ancestors))
	}
	t := &Table{
		uri:       dto.URI,
		version:   dto.Version,
		params:    params,
		names:     make(map[string]int),
		codes:     make([]Code, n),
		depth:     append([]int(nil), dto.Depth...),
		ancestors: make([][]ancestorLevels, n),
	}
	for i := 0; i < n; i++ {
		if len(dto.Members[i]) == 0 {
			return nil, fmt.Errorf("codes: concept %d has no member names", i)
		}
		for _, name := range dto.Members[i] {
			if _, dup := t.names[name]; dup {
				return nil, fmt.Errorf("codes: class %q appears in two concepts", name)
			}
			t.names[name] = i
		}
		t.codes[i].Primary = Interval{Lo: dto.Primary[i][0], Hi: dto.Primary[i][1]}
		if t.codes[i].Primary.Lo >= t.codes[i].Primary.Hi {
			return nil, fmt.Errorf("codes: concept %d has empty primary interval", i)
		}
		for _, iv := range dto.Covers[i] {
			t.codes[i].Covers = append(t.codes[i].Covers, Interval{Lo: iv[0], Hi: iv[1]})
		}
		if len(t.codes[i].Covers) == 0 {
			return nil, fmt.Errorf("codes: concept %d has no covers", i)
		}
		closure := make(map[int]int, len(dto.Ancestors[i]))
		for _, pair := range dto.Ancestors[i] {
			if pair[0] < 0 || pair[0] >= n {
				return nil, fmt.Errorf("codes: concept %d has ancestor index %d out of range", i, pair[0])
			}
			closure[pair[0]] = pair[1]
		}
		t.ancestors[i] = sortedAncestors(closure)
	}
	t.sigs = signatures(t.uri, t.ancestors)
	return t, nil
}
