package program

import (
	"testing"

	"repro/internal/isa"
)

func testImage() *Image {
	im := &Image{
		Text:           make([]isa.Inst, 10),
		Data:           make([]byte, 100),
		InitializedLen: 40,
		Symbols:        map[string]uint32{"main": TextBase},
		Funcs: []Func{
			{Name: "helper", Entry: TextBase + 20, NArgs: 2},
			{Name: "main", Entry: TextBase, NArgs: 0},
		},
	}
	im.Finalize()
	return im
}

func TestFinalizeSortsAndFillsEnds(t *testing.T) {
	im := testImage()
	if im.Funcs[0].Name != "main" || im.Funcs[1].Name != "helper" {
		t.Fatalf("funcs not sorted: %+v", im.Funcs)
	}
	if im.Funcs[0].End != TextBase+20 {
		t.Errorf("main end = %#x", im.Funcs[0].End)
	}
	if im.Funcs[1].End != TextBase+40 { // end of text
		t.Errorf("helper end = %#x", im.Funcs[1].End)
	}
	if im.Funcs[1].Size() != 5 {
		t.Errorf("helper size = %d", im.Funcs[1].Size())
	}
}

func TestFuncLookup(t *testing.T) {
	im := testImage()
	if f := im.FuncByEntry(TextBase + 20); f == nil || f.Name != "helper" {
		t.Errorf("FuncByEntry = %+v", f)
	}
	if f := im.FuncByEntry(TextBase + 24); f != nil {
		t.Error("FuncByEntry of non-entry should be nil")
	}
	if f := im.FuncAt(TextBase + 8); f == nil || f.Name != "main" {
		t.Errorf("FuncAt(main+8) = %+v", f)
	}
	if f := im.FuncAt(TextBase + 36); f == nil || f.Name != "helper" {
		t.Errorf("FuncAt(helper interior) = %+v", f)
	}
	if f := im.FuncAt(TextBase + 100); f != nil {
		t.Error("FuncAt past text should be nil")
	}
}

func TestInstAt(t *testing.T) {
	im := testImage()
	if _, err := im.InstAt(TextBase); err != nil {
		t.Errorf("InstAt(base): %v", err)
	}
	if _, err := im.InstAt(TextBase + 2); err == nil {
		t.Error("unaligned pc should fail")
	}
	if _, err := im.InstAt(TextBase + 400); err == nil {
		t.Error("out-of-text pc should fail")
	}
	if _, err := im.InstAt(TextBase - 4); err == nil {
		t.Error("below-text pc should fail")
	}
}

func TestAddressClassifiers(t *testing.T) {
	im := testImage()
	hb := im.HeapBase()
	if hb < DataBase+100 || hb%0x1000 != 0 {
		t.Errorf("heap base = %#x", hb)
	}
}

func TestLayoutConstants(t *testing.T) {
	if GPValue != DataBase+0x8000 {
		t.Error("gp must anchor the small-data window")
	}
	if StackTop <= StackLimit {
		t.Error("stack bounds inverted")
	}
	if TextBase >= DataBase {
		t.Error("text must precede data")
	}
}
