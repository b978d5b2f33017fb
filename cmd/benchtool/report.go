package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// writeReport lands a workload's JSON report somewhere inspectable: at
// jsonPath when the user passed -json (which is also how a committed
// baseline is re-recorded), otherwise at a fresh file in the OS temp
// directory named after tempPattern (os.CreateTemp semantics — the `*`
// becomes a unique suffix). Every workload routes through here so none of
// them silently discards its report or litters the working tree; a fixed
// temp path would collide across users on a shared machine, hence the
// per-run unique name.
func writeReport(jsonPath, tempPattern string, report any) error {
	if jsonPath == "" {
		f, err := os.CreateTemp("", tempPattern)
		if err != nil {
			return err
		}
		jsonPath = f.Name()
		f.Close()
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", jsonPath)
	return nil
}

// readReport parses a committed baseline into the report struct its
// workload writes.
func readReport(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchtool: reading baseline: %w", err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("benchtool: parsing baseline %s: %w", path, err)
	}
	return nil
}
