package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF output: the minimal, spec-valid subset of SARIF 2.1.0 that CI
// annotators (GitHub code scanning, reviewdog, sarif-tools) consume — one
// run, one rule per analyzer, one result per finding with a physical
// location whose artifact URI is module-relative. Everything optional is
// omitted rather than half-filled.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifMetaRules lists result sources that are not analyzers proper but can
// appear as diagnostics (the suppression machinery; a stale or reasonless
// //coordvet:detached is reported under goroutinediscipline itself).
var sarifMetaRules = map[string]string{
	"ignore": "malformed or stale //coordvet:ignore suppressions",
}

// WriteSARIF renders diags as a SARIF 2.1.0 log. Rules cover every analyzer
// that ran (findings or not, so a clean run still documents its coverage)
// plus any meta rule a diagnostic references.
func WriteSARIF(w io.Writer, modRoot string, analyzers []*Analyzer, diags []Diagnostic) error {
	driver := sarifDriver{
		Name:           "coordvet",
		InformationURI: "https://github.com/coordcharge/coordcharge#static-analysis-coordvet",
		Rules:          []sarifRule{},
	}
	ruleIndex := map[string]int{}
	addRule := func(id, doc string) {
		if _, ok := ruleIndex[id]; ok {
			return
		}
		ruleIndex[id] = len(driver.Rules)
		driver.Rules = append(driver.Rules, sarifRule{ID: id, ShortDescription: sarifMessage{Text: doc}})
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Doc)
	}
	results := []sarifResult{}
	for _, d := range diags {
		if _, ok := ruleIndex[d.Analyzer]; !ok {
			doc := sarifMetaRules[d.Analyzer]
			if doc == "" {
				doc = d.Analyzer
			}
			addRule(d.Analyzer, doc)
		}
		uri := d.Pos.Filename
		if rel, err := filepath.Rel(modRoot, uri); err == nil && !strings.HasPrefix(rel, "..") {
			uri = rel
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(uri)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
