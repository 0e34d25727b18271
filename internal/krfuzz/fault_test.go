package krfuzz

import "testing"

// TestFaultPositionMetamorphic drives the fault-position matrix: each
// program faults at runtime, and every engine/codegen configuration
// (default VM with unchecked opcodes, -absint=off with every check
// explicit, tree-walking reference, HCPA-instrumented) must report the
// identical error at the identical source position with the identical
// output prefix. The corpus aims the paths where bounds-check
// elimination could plausibly change fault behavior: faults adjacent to
// proven accesses, inside fused superinstruction chains, in mixed
// proven/unproven view chains, and in div/rem lowering.
func TestFaultPositionMetamorphic(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"oob-store-loop-edge", `
int a[10];
int main() {
	for (int i = 0; i <= 10; i++) {
		a[i] = i;
	}
	return 0;
}
`},
		{"oob-load-after-output", `
int a[8];
int main() {
	for (int i = 0; i < 8; i++) {
		a[i] = i * 2;
	}
	print("sum", a[3]);
	int k = 11;
	return a[k];
}
`},
		{"div-zero-through-array", `
int a[3];
int main() {
	a[0] = 7;
	a[2] = 0;
	print("start", a[0]);
	return a[0] / a[2];
}
`},
		{"mod-zero-in-loop", `
int a[6];
int main() {
	int acc = 0;
	for (int i = 0; i < 6; i++) {
		a[i] = 5 - i;
	}
	for (int i = 0; i < 6; i++) {
		acc = acc + 100 % a[i];
	}
	return acc;
}
`},
		{"negative-index", `
int a[5];
int main() {
	int base = 2;
	for (int i = 0; i < 5; i++) {
		a[i] = i;
	}
	return a[base - 4];
}
`},
		{"fused-2d-inner-oob", `
int m[4][4];
int main() {
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			m[i][j] = i * 4 + j;
		}
	}
	int s = 0;
	for (int i = 0; i < 4; i++) {
		s = s + m[i][i + 1];
	}
	return s;
}
`},
		{"proven-then-faulting-same-block", `
int a[10];
int b[10];
int main() {
	for (int i = 0; i < 10; i++) {
		a[i] = i;
		b[i] = 0;
	}
	int k = a[9] + 5;
	b[3] = a[3] + a[k];
	return b[3];
}
`},
		{"helper-return-index", `
int a[10];
int h(int x) {
	int r = x + 17;
	return r;
}
int main() {
	int k = h(3);
	int s = 0;
	for (int i = 0; i < 2; i++) {
		s = s + a[k];
	}
	return s;
}
`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckFault(tc.name+".kr", tc.src, OracleConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
