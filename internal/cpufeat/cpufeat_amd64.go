package cpufeat

// cpuid executes CPUID for the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register XCR0 (EDX:EAX).
func xgetbv() (eax, edx uint32)

// ymmUsable checks CPUID leaf 1 ECX for OSXSAVE (bit 27) and AVX (bit 28),
// then XCR0 bits 1 and 2, which say the OS saves the XMM and YMM state.
func ymmUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// detectAVX2 checks that CPUID reaches leaf 7, that the YMM state is
// usable, and CPUID leaf 7 EBX bit 5, AVX2.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 || !ymmUsable() {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// detectF16C checks that the YMM state is usable and CPUID leaf 1 ECX
// bit 29, F16C.
func detectF16C() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 || !ymmUsable() {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<29) != 0
}
