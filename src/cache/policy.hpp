#pragma once
// Cache eviction policies for the memory-management stage (Section 4):
//  * Clairvoyant (Bélády / the paper's baseline): evict the value whose
//    next use on this processor lies farthest in the future;
//  * LRU: evict the value that was least recently active (computed or
//    consumed).
//
// Both are strict total orders over the victim candidates (the node id
// breaks every tie); the memory completion (IncrementalEvaluator, behind
// complete_memory) ranks candidates by them, because only it knows the
// fixed compute order.

namespace mbsp {

enum class PolicyKind { kClairvoyant, kLru };

}  // namespace mbsp
