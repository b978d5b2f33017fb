package models

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// bottleneck builds the ResNet bottleneck block: 1×1 reduce, 3×3, 1×1 expand
// (expansion 4), with a projection shortcut when the geometry changes.
func bottleneck(name string, inC, midC, stride int, rng *tensor.RNG) *Residual {
	outC := midC * 4
	body := nn.NewSequential(name+".body",
		convBN(name+".a", inC, midC, 1, 1, 1, 1, 0, 0, rng),
		convBN(name+".b", midC, midC, 3, 3, stride, stride, 1, 1, rng),
		convBNNoReLU(name+".c", midC, outC, 1, 1, 1, 1, 0, 0, rng),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = convBNNoReLU(name+".down", inC, outC, 1, 1, stride, stride, 0, 0, rng)
	}
	return NewResidual(name, body, shortcut)
}

// basicBlock builds the two-3×3 block of the tiny CIFAR-style ResNets.
func basicBlock(name string, inC, outC, stride int, rng *tensor.RNG) *Residual {
	body := nn.NewSequential(name+".body",
		convBN(name+".a", inC, outC, 3, 3, stride, stride, 1, 1, rng),
		convBNNoReLU(name+".b", outC, outC, 3, 3, 1, 1, 1, 1, rng),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = convBNNoReLU(name+".down", inC, outC, 1, 1, stride, stride, 0, 0, rng)
	}
	return NewResidual(name, body, shortcut)
}

// NewResNet50 builds the full ImageNet ResNet-50 (stages [3,4,6,3], ~25.6 M
// parameters) for numClasses outputs, matching the Torch fb.resnet.torch
// model the paper trains.
func NewResNet50(numClasses int, rng *tensor.RNG) *nn.Sequential {
	name := "resnet50"
	net := nn.NewSequential(name,
		nn.NewConv2D(name+".stem.conv", 3, 64, 7, 7, 2, 2, 3, 3, nn.ConvOpts{}, rng),
		nn.NewBatchNorm2D(name+".stem.bn", 64, rng),
		nn.NewReLU(name+".stem.relu"),
		nn.NewMaxPool2D(name+".stem.pool", 3, 3, 2, 2, 1, 1),
	)
	inC := 64
	mids := []int{64, 128, 256, 512}
	for s, blocks := range []int{3, 4, 6, 3} {
		mid := mids[s]
		for b := 0; b < blocks; b++ {
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			blk := bottleneck(fmt.Sprintf("%s.s%d.b%d", name, s+1, b), inC, mid, stride, rng)
			net.Append(blk)
			inC = mid * 4
		}
	}
	net.Append(
		nn.NewGlobalAvgPool(name+".gap"),
		nn.NewFlatten(name+".flatten"),
		nn.NewLinear(name+".fc", inC, numClasses, rng),
	)
	return net
}

// NewTinyResNet builds a CIFAR-style 3-stage ResNet (basic blocks, widths
// 16/32/64) over small images — the functional-plane stand-in that lets the
// distributed-training correctness experiments train in seconds on CPU.
// blocksPerStage of 1 gives ResNet-8; 3 gives ResNet-20.
func NewTinyResNet(numClasses, blocksPerStage int, rng *tensor.RNG) *nn.Sequential {
	name := "tinyresnet"
	net := nn.NewSequential(name,
		nn.NewConv2D(name+".stem.conv", 3, 16, 3, 3, 1, 1, 1, 1, nn.ConvOpts{}, rng),
		nn.NewBatchNorm2D(name+".stem.bn", 16, rng),
		nn.NewReLU(name+".stem.relu"),
	)
	inC := 16
	outs := []int{16, 32, 64}
	for s := 0; s < 3; s++ {
		for b := 0; b < blocksPerStage; b++ {
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			net.Append(basicBlock(fmt.Sprintf("%s.s%d.b%d", name, s+1, b), inC, outs[s], stride, rng))
			inC = outs[s]
		}
	}
	net.Append(
		nn.NewGlobalAvgPool(name+".gap"),
		nn.NewFlatten(name+".flatten"),
		nn.NewLinear(name+".fc", inC, numClasses, rng),
	)
	return net
}
