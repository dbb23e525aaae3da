package config

import (
	"strings"
	"testing"
)

// FuzzRead hardens the experiment-file parser: arbitrary JSON must either
// error or produce sections that lower into specs, since Read validates
// every section it accepts.
func FuzzRead(f *testing.F) {
	f.Add(sample)
	f.Add(`{}`)
	f.Add(`{"coordinated": {"p1": 1, "avg_dod": 0.5}}`)
	f.Add(`{"endurance": {"years": 1e308, "mode": "global"}}`)
	f.Add(`{"advisor": {"p1": -5, "policy": "original"}}`)
	f.Add(`not json at all`)
	f.Add(`{"coordinated": null, "advisor": null}`)

	f.Fuzz(func(t *testing.T, data string) {
		file, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		if file.Coordinated != nil {
			if _, err := file.Coordinated.Spec(); err != nil {
				t.Fatalf("validated coordinated section failed to lower: %v", err)
			}
		}
		if file.Endurance != nil {
			if _, err := file.Endurance.EnduranceSpec(); err != nil {
				t.Fatalf("validated endurance section failed to lower: %v", err)
			}
		}
		if file.Advisor != nil {
			if _, err := file.Advisor.Spec(); err != nil {
				t.Fatalf("validated advisor section failed to lower: %v", err)
			}
		}
	})
}
