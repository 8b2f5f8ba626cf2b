package design

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// Drain management: circuit and device maintenance "can involve ...
// 'drain' and 'undrain' procedures to avoid the interruption of production
// traffic" (§1). drain_state is the paper's example of a purely
// operational attribute added to Desired models (§6.1).

// SetDrainState records a device's drain state as an attributed design
// change.
func (d *Designer) SetDrainState(ctx ChangeContext, device, state string) (ChangeResult, error) {
	if state != "drained" && state != "undrained" {
		return ChangeResult{}, fmt.Errorf("design: drain state must be drained or undrained, got %q", state)
	}
	return d.change(ctx, func(m *designTx) error {
		dev, err := m.FindOne("Device", fbnet.Eq("name", device))
		if err != nil {
			return err
		}
		if dev.String("drain_state") == state {
			return fmt.Errorf("design: %s is already %s", device, state)
		}
		return m.Update("Device", dev.ID, map[string]any{"drain_state": state})
	})
}

// IsDrained reports a device's recorded drain state.
func (d *Designer) IsDrained(device string) (bool, error) {
	dev, err := d.store.FindOne("Device", fbnet.Eq("name", device))
	if err != nil {
		return false, err
	}
	return dev.String("drain_state") == "drained", nil
}
