package core

import (
	"reflect"
	"testing"
	"time"
)

// TestMetricsAddCoversEveryField gives every counter of a Metrics a
// distinct value and one latency sample, adds it to a zero Metrics
// twice, and wants every field doubled: a field left out of Add stays
// at its single value and fails here instead of reading 0 in a report.
func TestMetricsAddCoversEveryField(t *testing.T) {
	var one Metrics
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		}
	}
	one.FaultLatency.Observe(3 * time.Millisecond)

	var sum Metrics
	sum.Add(&one)
	sum.Add(&one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name, f := got.Type().Field(i).Name, got.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			if f.Uint() != 2*uint64(i+1) {
				t.Errorf("Metrics.%s = %d after adding %d twice: Add leaves it out", name, f.Uint(), i+1)
			}
		case reflect.Int64:
			if f.Int() != 2*int64(i+1) {
				t.Errorf("Metrics.%s = %d after adding %d twice: Add leaves it out", name, f.Int(), i+1)
			}
		default:
			if name != "FaultLatency" {
				t.Errorf("Metrics.%s is a %s, which this test does not know how to add", name, f.Type())
			}
		}
	}
	if n, m := sum.FaultLatency.Count(), sum.FaultLatency.Mean(); n != 2 || m != 3*time.Millisecond {
		t.Errorf("merged fault latency: %d samples, mean %v; want 2 of 3ms", n, m)
	}
}
