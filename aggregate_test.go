package sinrconn

import "testing"

func TestAggregateSum(t *testing.T) {
	pts := uniformPoints(30, 36)
	res := build(t, pts, PipelineTVCArbitrary, WithSeed(2))
	values := make([]int64, len(pts))
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	out, err := res.Network().Aggregate(bg, res, values, SumAgg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != want {
		t.Fatalf("sum = %d, want %d", out.Value, want)
	}
	if out.SlotsUsed != res.Metrics.ScheduleLength+1 {
		t.Errorf("slots = %d, schedule = %d", out.SlotsUsed, res.Metrics.ScheduleLength)
	}
	if out.Energy <= 0 {
		t.Error("no energy recorded")
	}
}

func TestAggregateMax(t *testing.T) {
	pts := uniformPoints(31, 24)
	res := build(t, pts, PipelineInit, WithSeed(3))
	values := make([]int64, len(pts))
	values[5] = 999
	out, err := res.Network().Aggregate(bg, res, values, MaxAgg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 999 {
		t.Fatalf("max = %d, want 999", out.Value)
	}
}

func TestAggregateValidation(t *testing.T) {
	pts := uniformPoints(32, 12)
	res := build(t, pts, PipelineInit, WithSeed(1))
	if _, err := res.Network().Aggregate(bg, res, nil, SumAgg); err == nil {
		t.Error("short values accepted")
	}
	if _, err := res.Network().Aggregate(bg, res, make([]int64, len(pts)), nil); err == nil {
		t.Error("nil fold accepted")
	}
}

func TestBroadcastEpoch(t *testing.T) {
	pts := uniformPoints(33, 30)
	res := build(t, pts, PipelineTVCArbitrary, WithSeed(4))
	out, err := res.Network().Broadcast(bg, res, 123)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reached != 30 {
		t.Fatalf("reached %d of 30", out.Reached)
	}
	if out.SlotsUsed != res.Metrics.ScheduleLength+1 || out.Energy <= 0 {
		t.Errorf("outcome: %+v", out)
	}
}

func TestSendMessage(t *testing.T) {
	pts := uniformPoints(34, 28)
	res := build(t, pts, PipelineTVCArbitrary, WithSeed(6))
	out, err := res.Network().SendMessage(bg, res, 3, 17, 555)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered {
		t.Fatal("message not delivered")
	}
	if max := 2 * (res.Metrics.ScheduleLength + 1); out.SlotsUsed > max {
		t.Errorf("latency %d exceeds 2×schedule %d", out.SlotsUsed, max)
	}
	if _, err := res.Network().SendMessage(bg, res, 0, 9999, 1); err == nil {
		t.Error("bad destination accepted")
	}
}
