package hetero2pipe_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"hetero2pipe"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

func TestFacadeRun(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run("ResNet50", "BERT", "SqueezeNet")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Latency <= 0 || res.Throughput <= 0 || res.EnergyJoules <= 0 {
		t.Fatalf("result %+v incomplete", res)
	}
	serial, err := sys.SerialBaseline("ResNet50", "BERT", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	if serial <= res.Latency {
		t.Errorf("serial baseline %v not above planned %v", serial, res.Latency)
	}
	// The visualisation hooks work off the same result.
	if g := res.Gantt(40); !strings.Contains(g, "npu") {
		t.Error("gantt missing processor rows")
	}
	data, err := res.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := hetero2pipe.NewSystem("NoSuchChip"); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := hetero2pipe.NewSystemFor(nil); err == nil {
		t.Error("nil SoC accepted")
	}
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("NoSuchNet"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := sys.SerialBaseline("NoSuchNet"); err == nil {
		t.Error("unknown model accepted in baseline")
	}
}

func TestFacadeModels(t *testing.T) {
	names := hetero2pipe.Models()
	if len(names) != 13 { // 10 evaluation + 3 application extras
		t.Fatalf("Models() = %d names: %v", len(names), names)
	}
	sys, err := hetero2pipe.NewSystem("Snapdragon870")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(names[0], names[len(names)-1]); err != nil {
		t.Fatalf("running first+last listed models: %v", err)
	}
}

func TestFacadeCustomSoC(t *testing.T) {
	custom := soc.Kirin990()
	custom.Name = "CustomChip"
	sys, err := hetero2pipe.NewSystemFor(custom)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SoC().Name != "CustomChip" {
		t.Error("SoC accessor mismatch")
	}
	res, err := sys.RunModels([]*model.Model{model.MustByName(model.GoogLeNet)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Execution.Completions) != 1 {
		t.Error("single request did not complete")
	}
}

func TestFacadeStream(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	requests := stream.PoissonArrivals([]*model.Model{
		model.MustByName(model.SqueezeNet),
		model.MustByName(model.MobileNetV2),
		model.MustByName(model.ResNet50),
	}, 10*time.Millisecond, 3)
	res, err := sys.RunStream(requests, stream.DefaultConfig())
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(res.Completions) != 3 || res.Windows < 1 {
		t.Fatalf("stream result %+v", res)
	}
}

// TestFacadeRejectsNilModelRequest feeds a stream whose middle request has
// no model through both serving entry points: each must return
// ErrInvalidRequest before routing or planning touches the request, not
// panic on the nil dereference.
func TestFacadeRejectsNilModelRequest(t *testing.T) {
	requests := []hetero2pipe.StreamRequest{
		{Model: model.MustByName(model.SqueezeNet), Arrival: 0},
		{Arrival: time.Millisecond},
		{Model: model.MustByName(model.ResNet50), Arrival: 2 * time.Millisecond},
	}
	t.Run("stream", func(t *testing.T) {
		sys, err := hetero2pipe.NewSystem("Kirin990")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunStream(requests, stream.DefaultConfig()); !errors.Is(err, hetero2pipe.ErrInvalidRequest) {
			t.Fatalf("RunStream error = %v, want ErrInvalidRequest", err)
		}
	})
	t.Run("fleet", func(t *testing.T) {
		sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithFleet(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunFleet(requests); !errors.Is(err, hetero2pipe.ErrInvalidRequest) {
			t.Fatalf("RunFleet error = %v, want ErrInvalidRequest", err)
		}
	})
}
