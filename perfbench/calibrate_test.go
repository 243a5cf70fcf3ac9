package main

import "testing"

// The allocation metric subtracts calibrationAlloc per calibration, so
// the loop must allocate the same amount every time, up to the few
// bytes the runtime itself may allocate meanwhile.
func TestCalibrationAllocIsStable(t *testing.T) {
	a, b := calibrationAlloc(), calibrationAlloc()
	if a < calEvents*16 || b < calEvents*16 {
		t.Fatalf("calibration allocated %d and %d bytes, want at least %d", a, b, calEvents*16)
	}
	if d := int64(a) - int64(b); d*100 > int64(a) || -d*100 > int64(a) {
		t.Fatalf("calibration allocated %d then %d bytes", a, b)
	}
	if c := calibrate(); c <= 0 {
		t.Fatalf("calibration took %v s", c)
	}
}
