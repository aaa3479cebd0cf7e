#include "framework/store_pack.h"

#include <cstdio>

#include "common/binary_io.h"

namespace ckr {
namespace {

constexpr uint32_t kPackMagic = 0x434b5231;  // 'CKR1'

}  // namespace

std::string SerializeStorePack(const GlobalTidTable& tids,
                               const QuantizedInterestingnessStore& interest,
                               const PackedRelevanceStore& relevance,
                               const RankSvmModel& model) {
  BinaryWriter writer;
  writer.U32(kPackMagic);
  tids.SaveTo(&writer);
  interest.SaveTo(&writer);
  relevance.SaveTo(&writer);
  // The compact v2 model blob; Deserialize sniffs the format, so packs
  // written with the v1 text blob load unchanged.
  writer.Str(model.SerializeBinary());
  return writer.Release();
}

std::string StorePack::Serialize() const {
  return SerializeStorePack(*tids, interestingness, *relevance, model);
}

StatusOr<StorePack> StorePack::Deserialize(std::string_view blob) {
  BinaryReader reader(blob);
  if (reader.U32() != kPackMagic) {
    return Status::InvalidArgument("bad store-pack magic");
  }
  StorePack pack;
  auto tids_or = GlobalTidTable::LoadFrom(&reader);
  if (!tids_or.ok()) return tids_or.status();
  pack.tids = std::make_unique<GlobalTidTable>(std::move(*tids_or));

  auto interest_or = QuantizedInterestingnessStore::LoadFrom(&reader);
  if (!interest_or.ok()) return interest_or.status();
  pack.interestingness = std::move(*interest_or);

  auto relevance_or =
      PackedRelevanceStore::LoadFrom(&reader, pack.tids.get());
  if (!relevance_or.ok()) return relevance_or.status();
  pack.relevance =
      std::make_unique<PackedRelevanceStore>(std::move(*relevance_or));

  auto model_or = RankSvmModel::Deserialize(reader.Str());
  if (!model_or.ok()) return model_or.status();
  pack.model = std::move(*model_or);

  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in store pack");
  }
  return pack;
}

Status StorePack::SaveToFile(const std::string& path) const {
  std::string blob = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (written != blob.size()) return Status::IOError("short write " + path);
  return Status::OK();
}

StatusOr<StorePack> StorePack::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string blob;
  char buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.append(buf, n);
  }
  std::fclose(f);
  return Deserialize(blob);
}

}  // namespace ckr
